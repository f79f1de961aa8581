package testprog

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
)

// Random program generation for fuzz-style differential testing: generated
// programs are well-typed, deterministic, and always terminate, but
// exercise arbitrary combinations of nested loops, branches, delta
// iterations and bag operations. Every bag variable holds (string, int)
// pairs throughout, so key-based operations stay applicable; shape-changing
// operations (join, cross) are emitted together with a map that restores
// the pair shape.

// GenProgram returns the source of a random program and seeds its input
// datasets into st. Generation is deterministic in seed.
func GenProgram(st store.Store, seed int64) (string, error) {
	r := rand.New(rand.NewSource(seed))
	g := &progGen{r: r}

	// Seed input datasets.
	nInputs := 2 + r.Intn(3)
	for i := 0; i < nInputs; i++ {
		name := fmt.Sprintf("in%d", i)
		n := 10 + r.Intn(40)
		elems := make([]val.Value, n)
		for j := range elems {
			elems[j] = val.Pair(
				val.Str(fmt.Sprintf("k%d", r.Intn(8))),
				val.Int(r.Int63n(50)))
		}
		if err := st.WriteDataset(name, elems); err != nil {
			return "", err
		}
		v := g.freshBag()
		g.emit("%s = readFile(\"%s\")", v, name)
	}
	// Seed a couple of scalars.
	for i := 0; i < 2; i++ {
		v := g.freshScalar()
		g.emit("%s = %d", v, r.Intn(10))
	}

	g.genStmts(4+r.Intn(5), 0)

	// Write every bag out so all intermediate state is observable.
	for i, b := range g.bags {
		g.emit("%s.writeFile(\"out%d\")", b, i)
	}
	return g.b.String(), nil
}

type progGen struct {
	r       *rand.Rand
	b       strings.Builder
	indent  int
	bags    []string
	scalars []string
	nVar    int
	loops   int // loop counter suffix to keep counters unique
}

func (g *progGen) emit(format string, args ...any) {
	for i := 0; i < g.indent; i++ {
		g.b.WriteString("  ")
	}
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *progGen) freshBag() string {
	g.nVar++
	v := fmt.Sprintf("b%d", g.nVar)
	g.bags = append(g.bags, v)
	return v
}

func (g *progGen) freshScalar() string {
	g.nVar++
	v := fmt.Sprintf("s%d", g.nVar)
	g.scalars = append(g.scalars, v)
	return v
}

func (g *progGen) anyBag() string    { return g.bags[g.r.Intn(len(g.bags))] }
func (g *progGen) anyScalar() string { return g.scalars[g.r.Intn(len(g.scalars))] }

// genStmts emits n statements at the current nesting depth. At the top
// level a delta loop precedes a statement one time in three; that draw is
// its own, so the other kinds keep their shares at every depth.
func (g *progGen) genStmts(n, depth int) {
	for i := 0; i < n; i++ {
		if depth == 0 && g.r.Intn(3) == 0 {
			g.genDeltaLoop()
		}
		switch k := g.r.Intn(10); {
		case k < 4:
			g.genBagAssign(depth)
		case k < 6:
			g.genScalarAssign(depth)
		case k < 8 && depth < 2:
			g.genLoop(depth)
		default:
			if depth < 3 {
				g.genIf(depth)
			} else {
				g.genBagAssign(depth)
			}
		}
	}
}

// bagTarget picks an assignment target: a fresh variable at the top level
// (always definitely assigned afterwards), an existing one inside branches
// and loop bodies, where a fresh variable would not be assigned on every
// path. Reassigning existing variables creates the patterns that need
// phis.
func (g *progGen) bagTarget(depth int) string {
	if depth == 0 && g.r.Intn(2) == 0 {
		return g.freshBag()
	}
	return g.anyBag()
}

func (g *progGen) scalarTarget(depth int) string {
	if depth == 0 && g.r.Intn(2) == 0 {
		return g.freshScalar()
	}
	return g.anyScalar()
}

// genBagAssign assigns a pair-shaped bag expression. Sources are chosen
// before the target is registered, so a fresh target can never appear in
// its own right-hand side.
func (g *progGen) genBagAssign(depth int) {
	src := g.anyBag()
	src2 := g.anyBag()
	scal := g.anyScalar()
	kind := g.r.Intn(9)
	target := g.bagTarget(depth)
	switch kind {
	case 0:
		g.emit("%s = %s.map(t => (t.0, t.1 + %d))", target, src, g.r.Intn(5))
	case 1:
		g.emit("%s = %s.filter(t => t.1 %% %d != 0)", target, src, 2+g.r.Intn(3))
	case 2:
		g.emit("%s = %s.reduceByKey((a, c) => a + c)", target, src)
	case 3:
		// distinct caps the growth of self-unions inside loops.
		g.emit("%s = %s.union(%s).distinct()", target, src, src2)
	case 4:
		g.emit("%s = %s.distinct()", target, src)
	case 5:
		// Join two pair bags, restore the pair shape, and collapse per key
		// so repeated self-joins inside loops cannot blow up quadratically.
		g.emit("%s = %s.join(%s).map(t => (t.0, t.1 + t.2)).reduceByKey((a, c) => min(a, c))", target, src, src2)
	case 6:
		// Cross with a singleton scalar, then restore the pair shape.
		g.emit("%s = %s.cross(newBag(%s)).map(t => (t.0.0, t.0.1 + t.1))", target, src, scal)
	case 7:
		// Global reduce to a singleton pair bag. Both folds are associative
		// and commutative, so the result is independent of fold order —
		// required for any distributed reduce, exercised hardest by the
		// partial-aggregation rewrite.
		g.emit("%s = %s.reduce((a, c) => (min(a.0, c.0), a.1 + c.1))", target, src)
	default:
		g.emit("%s = %s.map(t => (t.0, t.1 * 2)).reduceByKey((a, c) => max(a, c))", target, src)
	}
}

func (g *progGen) genScalarAssign(depth int) {
	src := g.anyScalar()
	src2 := g.anyScalar()
	srcBag := g.anyBag()
	kind := g.r.Intn(4)
	target := g.scalarTarget(depth)
	switch kind {
	case 0:
		g.emit("%s = %s + %d", target, src, g.r.Intn(7))
	case 1:
		g.emit("%s = %s * 2 - %s", target, src, src2)
	case 2:
		g.emit("%s = only(%s.count())", target, srcBag)
	default:
		g.emit("%s = only(%s.map(t => t.1).sum()) %% 97", target, srcBag)
	}
}

// genLoop emits a counted loop that always terminates: the counter is a
// dedicated fresh variable incremented as the body's last statement.
func (g *progGen) genLoop(depth int) {
	g.loops++
	counter := fmt.Sprintf("i%d", g.loops)
	bound := 2 + g.r.Intn(3)
	postTest := g.r.Intn(2) == 0
	g.emit("%s = 0", counter)
	if postTest {
		g.emit("do {")
	} else {
		g.emit("while (%s < %d) {", counter, bound)
	}
	g.indent++
	g.genStmts(1+g.r.Intn(3), depth+1)
	// Occasionally exit or skip ahead early, guarded so the loop still
	// terminates (the counter increment below always runs first).
	if g.r.Intn(3) == 0 {
		g.emit("%s = %s + 1", counter, counter)
		kind := "break"
		if g.r.Intn(2) == 0 {
			kind = "continue"
		}
		g.emit("if (%s %% %d == %d) {", g.anyScalar(), 2+g.r.Intn(3), g.r.Intn(3))
		g.indent++
		g.emit("%s", kind)
		g.indent--
		g.emit("}")
		g.indent--
		if postTest {
			g.emit("} while (%s < %d)", counter, bound)
		} else {
			g.emit("}")
		}
		return
	}
	g.emit("%s = %s + 1", counter, counter)
	g.indent--
	if postTest {
		g.emit("} while (%s < %d)", counter, bound)
	} else {
		g.emit("}")
	}
}

func (g *progGen) genIf(depth int) {
	cond := ""
	switch g.r.Intn(3) {
	case 0:
		cond = fmt.Sprintf("%s %% 2 == 0", g.anyScalar())
	case 1:
		cond = fmt.Sprintf("%s < %d", g.anyScalar(), g.r.Intn(20))
	default:
		cond = fmt.Sprintf("only(%s.count()) > %d", g.anyBag(), g.r.Intn(30))
	}
	g.emit("if (%s) {", cond)
	g.indent++
	g.genStmts(1+g.r.Intn(2), depth+1)
	g.indent--
	if g.r.Intn(2) == 0 {
		g.emit("} else {")
		g.indent++
		g.genStmts(1+g.r.Intn(2), depth+1)
		g.indent--
	}
	g.emit("}")
}

// genDeltaLoop emits a top-level loop around a deltaMerge. The merge is
// drawn from {min, max, +}, the commutative and associative functions
// deltaMerge shares with reduceByKey. The solution set starts empty or from
// a pre-existing bag (the seed-ingest path), and the body re-derives the next
// workset from the changed pairs the deltaMerge emits. Some loops read the
// solution set inside the body, the case that needs the store's snapshot
// journal when pipelining overlaps steps.
func (g *progGen) genDeltaLoop() {
	merge := [...]string{"min(a, b)", "max(a, b)", "a + b"}[g.r.Intn(3)]
	seedExpr := "empty()"
	if g.r.Intn(2) == 0 {
		seedExpr = fmt.Sprintf("%s.reduceByKey((a, b) => %s)", g.anyBag(), merge)
	}
	src := g.anyBag() // chosen before d and w exist: never self-referential
	d := g.freshBag()
	g.emit("%s = %s", d, src)
	w := g.freshBag()

	// A loop that runs to workset convergence clamps every value into a
	// short monotone walk toward a bound the filter cuts off, so it reaches
	// the merge's fixpoint within 30 steps whatever the values the program
	// computed before it. A loop that runs to a counter bound can use any
	// transform, including growth under the + merge.
	converge := g.r.Intn(2) == 0 && merge != "a + b"
	step := 1 + g.r.Intn(3)
	transform := fmt.Sprintf("%s = %s.map(t => (t.0, t.1 + %d))", d, w, step)
	if converge && merge == "min(a, b)" {
		transform = fmt.Sprintf("%s = %s.map(t => (t.0, min(t.1, 30) - %d)).filter(t => t.1 > 0)", d, w, step)
	} else if converge {
		transform = fmt.Sprintf("%s = %s.map(t => (t.0, max(t.1, 40) + %d)).filter(t => t.1 < 70)", d, w, step)
	}

	g.loops++
	counter := fmt.Sprintf("i%d", g.loops)
	if !converge {
		g.emit("%s = 0", counter)
	}
	readInLoop := g.r.Intn(2) == 0
	var acc string
	if readInLoop {
		// An in-loop solution read, accumulated into an observable bag so
		// every step's snapshot affects the program output.
		acc = g.freshBag()
		g.emit("%s = empty()", acc)
	}
	g.emit("do {")
	g.indent++
	g.emit("%s = %s.deltaMerge(%s, (a, b) => %s)", w, seedExpr, d, merge)
	if readInLoop {
		s := g.freshBag()
		g.emit("%s = %s.solution()", s, w)
		g.emit("%s = %s.union(%s).distinct()", acc, acc, s)
	}
	g.emit(transform)
	cond := fmt.Sprintf("only(%s.count()) > 0", w)
	if !converge {
		g.emit("%s = %s + 1", counter, counter)
		cond = fmt.Sprintf("%s < %d", counter, 2+g.r.Intn(3))
	}
	g.indent--
	g.emit("} while (%s)", cond)
	sol := g.freshBag()
	g.emit("%s = %s.solution()", sol, w)
}
