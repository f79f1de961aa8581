package core

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mitos-project/mitos/internal/ir"
)

// memoSrc gives every plan rewrite something to do: the reduceByKey gets a
// combiner, and the maps and filter around it chain.
const memoSrc = `
visits = readFile("in")
i = 1
while (i <= 3) {
  counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b)
  counts.filter(t => t.1 > 2).map(t => t.0).writeFile("out" + i)
  i = i + 1
}
`

// TestPlanKeyCoversCompile flips every field of Options in turn. A field
// whose flip leaves PlanKey unchanged must leave Compile's plan unchanged
// too, so a PlanMemo never hands out a plan compiled under other options;
// a field in the key must change the plan of memoSrc, so the test would see
// it if it fell out of the key. A field of a kind the test cannot flip
// fails it.
func TestPlanKeyCoversCompile(t *testing.T) {
	g := compile(t, memoSrc)
	const machines = 3
	base := DefaultOptions()
	want, err := Compile(g, machines, base)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		opts := base
		f := reflect.ValueOf(&opts).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int:
			f.SetInt(f.Int() + 7)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("Options.%s is a %s: teach this test to flip it", name, f.Kind())
		}
		got, err := Compile(g, machines, opts)
		if err != nil {
			t.Fatalf("Options.%s flipped: %v", name, err)
		}
		same := got.String() == want.String() && got.Dot() == want.Dot()
		inKey := opts.PlanKey(machines) != base.PlanKey(machines)
		switch {
		case !inKey && !same:
			t.Errorf("Options.%s is outside PlanKey but changes Compile's plan:\n%s\nwant\n%s", name, got, want)
		case inKey && same:
			t.Errorf("Options.%s is in PlanKey but flipping it leaves memoSrc's plan unchanged", name)
		}
	}
}

// TestPlanMemo walks one memo through a sequence of calls: it plans again
// exactly when the source or the plan key changes, hands back the kept plan
// otherwise, and keeps no error.
func TestPlanMemo(t *testing.T) {
	g := compile(t, memoSrc)
	fronts := 0
	var fail error
	frontEnd := func(string) (*ir.Graph, error) {
		fronts++
		return g, fail
	}
	with := func(edit func(*Options)) Options {
		o := DefaultOptions()
		edit(&o)
		return o
	}
	var m PlanMemo
	var last *Plan
	steps := []struct {
		name     string
		source   string
		machines int
		opts     Options
		plans    bool
	}{
		{"first job", "a", 2, DefaultOptions(), true},
		{"same job", "a", 2, DefaultOptions(), false},
		{"options outside the key", "a", 2, with(func(o *Options) {
			o.Templates, o.Pipelining, o.Hoisting, o.Delta, o.BatchSize = false, false, false, false, 5
		}), false},
		{"parallelism resolved to the same", "a", 2, with(func(o *Options) { o.Parallelism = 2 }), false},
		{"Combiners", "a", 2, with(func(o *Options) { o.Combiners = false }), true},
		{"Chaining", "a", 2, with(func(o *Options) { o.Combiners, o.Chaining = false, false }), true},
		{"back to the defaults", "a", 2, DefaultOptions(), true},
		{"Parallelism", "a", 2, with(func(o *Options) { o.Parallelism = 4 }), true},
		{"machines", "a", 3, DefaultOptions(), true},
		{"source", "b", 3, DefaultOptions(), true},
	}
	for _, s := range steps {
		before := fronts
		plan, err := m.Compile(s.source, s.machines, s.opts, frontEnd)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if planned := fronts > before; planned != s.plans {
			t.Errorf("%s: planned %v, want %v", s.name, planned, s.plans)
		}
		if s.plans == (plan == last) {
			t.Errorf("%s: got the kept plan %v, want %v", s.name, plan == last, !s.plans)
		}
		for _, op := range plan.Ops {
			if want := s.opts.PlanKey(s.machines).Parallelism; op.Instr.Kind == ir.OpReadFile && op.Par != want {
				t.Errorf("%s: readFile runs %d instances, want %d", s.name, op.Par, want)
			}
		}
		last = plan
	}

	fail = errors.New("front end failed")
	for i := 0; i < 2; i++ {
		before := fronts
		if _, err := m.Compile("c", 3, DefaultOptions(), frontEnd); !errors.Is(err, fail) {
			t.Fatalf("failing front end: err %v", err)
		}
		if fronts != before+1 {
			t.Errorf("failing front end call %d: the memo answered from a kept error", i+1)
		}
	}
	fail = nil
	if plan, err := m.Compile("b", 3, DefaultOptions(), frontEnd); err != nil || plan != last {
		t.Errorf("after a failed call the memo lost its plan: %v", err)
	}
}

// TestPlanMemoConcurrent: callers racing on one key each get the plan, and
// the memo keeps one of them for the next call. Run with -race.
func TestPlanMemoConcurrent(t *testing.T) {
	g := compile(t, memoSrc)
	var fronts atomic.Int64
	frontEnd := func(string) (*ir.Graph, error) {
		fronts.Add(1)
		return g, nil
	}
	var m PlanMemo
	plans := make([]*Plan, 8)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := m.Compile("a", 2, DefaultOptions(), frontEnd)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}()
	}
	wg.Wait()
	for i, p := range plans {
		if p == nil || p.String() != plans[0].String() {
			t.Fatalf("caller %d got a different plan", i)
		}
	}
	before := fronts.Load()
	if p, err := m.Compile("a", 2, DefaultOptions(), frontEnd); err != nil || fronts.Load() != before || !slices.Contains(plans, p) {
		t.Errorf("the call after the race planned again (err %v)", err)
	}
}
