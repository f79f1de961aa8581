package main

import (
	"math/rand"

	"github.com/mitos-project/mitos/internal/store"
	"github.com/mitos-project/mitos/internal/val"
	wl "github.com/mitos-project/mitos/internal/workload"
)

// Nothing is sized above what the two cores of the reference box carry.
const (
	simMachines = 4
	tcpWorkers  = 2
)

// dataset is one generated input (or one oracle output) held in memory, so
// that every job gets a fresh store loaded outside its timed region.
type dataset struct {
	name  string
	elems []val.Value
}

// workloadDef is one benchmark workload: a Mitos script plus inputs made
// from the seed. Sizes give ≈0.2 s per job on the reference box.
type workloadDef struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json
	// carries the same sentence.
	why string
	// tcp runs the job on StartLocalTCP workers with a MemStore instead of
	// the zero-delay simulated cluster with a DFS store.
	tcp bool
	// build returns the script and the inputs generated from seed. tiny is
	// the smoke-test scale.
	build func(seed int64, tiny bool) (string, []dataset, error)
	// shape returns elements of the kind the workload moves between
	// machines; the val and dataflow unit costs are measured on them.
	shape func(inputs []dataset) []val.Value
}

var workloads = []*workloadDef{
	{
		name: "steploop",
		why:  "50000-step loop with no data: the control plane (coordinator, templates, broadcast, mailbox wake) does all the work, val/codec/dfs none",
		build: func(_ int64, tiny bool) (string, []dataset, error) {
			steps := 50000
			if tiny {
				steps = 200
			}
			return wl.StepLoopScript(steps), nil, nil
		},
		shape: func([]dataset) []val.Value {
			out := make([]val.Value, sampleSize)
			for i := range out {
				out[i] = val.Int(int64(i))
			}
			return out
		},
	},
	{
		name: "visitcount_bulk",
		why:  "6 days x 25000 string-keyed visits with the pageTypes join: per-element UDF, hash, codec and reduceByKey work dominates, 19 steps of control plane",
		build: func(seed int64, tiny bool) (string, []dataset, error) {
			spec := wl.VisitCountSpec{Days: 6, VisitsPerDay: 25000, Pages: 2500, WithDiff: true, WithPageTypes: true, Seed: seed}
			if tiny {
				spec.Days, spec.VisitsPerDay, spec.Pages = 3, 300, 20
			}
			return visitCount(spec)
		},
		shape: visitPairs,
	},
	{
		name: "connected_delta",
		why:  "connected components on 30512 int-keyed nodes: in-place keyed state (deltaMerge/solution) and a long tail of near-empty steps, unlike one-shot string aggregation",
		build: func(seed int64, tiny bool) (string, []dataset, error) {
			pairs, paths, pathLen := 15000, 8, 64
			if tiny {
				pairs, paths, pathLen = 40, 2, 8
			}
			return wl.ConnectedScript, connectedGraph(seed, pairs, paths, pathLen), nil
		},
		shape: func(inputs []dataset) []val.Value {
			for _, d := range inputs {
				if d.name == "edges" {
					return d.elems[:min(sampleSize, len(d.elems))]
				}
			}
			return nil
		},
	},
	{
		name: "visitcount_tcp",
		why:  "60 days x 4000 visits on 2 loopback TCP workers: the only workload where netcluster (wire codec, credits, shipment) works and the combiner shrinks a real shuffle",
		tcp:  true,
		build: func(seed int64, tiny bool) (string, []dataset, error) {
			spec := wl.VisitCountSpec{Days: 60, VisitsPerDay: 4000, Pages: 400, WithDiff: true, Seed: seed}
			if tiny {
				spec.Days, spec.VisitsPerDay, spec.Pages = 4, 100, 10
			}
			return visitCount(spec)
		},
		shape: visitPairs,
	},
}

// sampleSize is how many elements the val and dataflow unit costs cycle
// through: enough distinct keys that hashing and map growth are exercised.
const sampleSize = 4096

func visitCount(spec wl.VisitCountSpec) (string, []dataset, error) {
	st := store.NewMemStore()
	if err := spec.Generate(st); err != nil {
		return "", nil, err
	}
	inputs, err := datasets(st, nil)
	return spec.Script(), inputs, err
}

// datasets copies every dataset of st not named in skip out of the store.
func datasets(st *store.MemStore, skip map[string]bool) ([]dataset, error) {
	var out []dataset
	for _, name := range st.Names() {
		if skip[name] {
			continue
		}
		elems, err := st.ReadDataset(name)
		if err != nil {
			return nil, err
		}
		out = append(out, dataset{name, elems})
	}
	return out, nil
}

// visitPairs is the (page, 1) pair Visit Count shuffles, built from the
// first day's visits.
func visitPairs(inputs []dataset) []val.Value {
	for _, d := range inputs {
		if d.name != "pageVisitLog1" {
			continue
		}
		out := make([]val.Value, min(sampleSize, len(d.elems)))
		for i := range out {
			out[i] = val.Pair(d.elems[i], val.Int(1))
		}
		return out
	}
	return nil
}

// connectedGraph builds the delta-iteration graph: a sea of two-node
// components that converge in two steps plus a few long paths that keep a
// tiny frontier alive. Node IDs are permuted by the seed, but each path
// keeps its smallest ID at its head, so the label walks the whole path and
// the step count is the same for every seed.
func connectedGraph(seed int64, pairs, paths, pathLen int) []dataset {
	r := rand.New(rand.NewSource(seed))
	n := 2*pairs + paths*pathLen
	ids := r.Perm(n)
	edges := make([]val.Value, 0, 2*(pairs+paths*(pathLen-1)))
	link := func(u, v int) {
		edges = append(edges,
			val.Pair(val.Int(int64(u)), val.Int(int64(v))),
			val.Pair(val.Int(int64(v)), val.Int(int64(u))))
	}
	for c := 0; c < pairs; c++ {
		link(ids[2*c], ids[2*c+1])
	}
	for c := 0; c < paths; c++ {
		path := ids[2*pairs+c*pathLen:][:pathLen]
		head := 0
		for i, id := range path {
			if id < path[head] {
				head = i
			}
		}
		path[0], path[head] = path[head], path[0]
		for i := 1; i < pathLen; i++ {
			link(path[i-1], path[i])
		}
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	nodes := make([]val.Value, n)
	for i := range nodes {
		nodes[i] = val.Int(int64(i))
	}
	return []dataset{{"edges", edges}, {"nodes", nodes}}
}
