package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// mergeKept names the Result fields Merge leaves as the receiver's own, and
// coordinatorSide the counters only the coordinator keeps: Merge sums them
// by name, and no worker ships them.
var (
	mergeKept       = map[string]bool{"Duration": true, "DeltaSteps": true}
	coordinatorSide = map[string]bool{"Steps": true, "ChainedEdges": true, "TemplateInstalls": true, "TemplateInstantiations": true}
)

// resultLeaves calls fn on every field of r, descending into struct fields
// (Job), with the field's dotted name.
func resultLeaves(r *Result, fn func(name string, f reflect.Value)) {
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name := prefix + v.Type().Field(i).Name
			if f := v.Field(i); f.Kind() == reflect.Struct {
				walk(name+".", f)
			} else {
				fn(name, f)
			}
		}
	}
	walk("", reflect.ValueOf(r).Elem())
}

// TestCountersCoverResult: every int64 counter of Result and of its
// dataflow.JobStats is on Counters — the list Merge folds and netcluster
// ships — once, and every other field is one Merge names: a coordinator-side
// int it sums, or a field it keeps. A counter added to either struct and
// missed on the list would neither merge nor travel.
func TestCountersCoverResult(t *testing.T) {
	var r Result
	listed := map[*int64]bool{}
	for _, p := range r.Counters() {
		if listed[p] {
			t.Errorf("Counters lists one field twice")
		}
		listed[p] = true
	}
	int64Type := reflect.TypeOf(int64(0))
	resultLeaves(&r, func(name string, f reflect.Value) {
		onList := f.Type() == int64Type && listed[f.Addr().Interface().(*int64)]
		switch {
		case mergeKept[name]:
		case coordinatorSide[name]:
			if onList {
				t.Errorf("Result.%s is coordinator-side but on Counters", name)
			}
		case f.Type() == int64Type:
			if !onList {
				t.Errorf("Result.%s is an int64 counter missing from Counters", name)
			}
			delete(listed, f.Addr().Interface().(*int64))
		default:
			t.Errorf("Result.%s is a %s that Merge does not name: put it on Counters, sum it as coordinator-side, or keep it", name, f.Type())
		}
	})
	if len(listed) != 0 {
		t.Errorf("Counters lists %d pointers that are no int64 field of Result", len(listed))
	}
}

// TestMergeSumsCounters merges randomly filled shares: every counter is the
// field-wise sum but MaxBufferedBags, the maximum, and the fields Merge keeps
// stay the receiver's.
func TestMergeSumsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fill := func(r *Result) {
		resultLeaves(r, func(_ string, f reflect.Value) {
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(rng.Int63n(1 << 40))
			case reflect.Slice:
				f.Set(reflect.MakeSlice(f.Type(), rng.Intn(3)+1, 4))
			}
		})
	}
	for i := 0; i < 20; i++ {
		var a, b Result
		fill(&a)
		fill(&b)
		got := a
		got.Merge(&b)
		av, bv := map[string]reflect.Value{}, map[string]reflect.Value{}
		resultLeaves(&a, func(name string, f reflect.Value) { av[name] = f })
		resultLeaves(&b, func(name string, f reflect.Value) { bv[name] = f })
		resultLeaves(&got, func(name string, f reflect.Value) {
			switch {
			case mergeKept[name]:
				if f.Kind() == reflect.Slice && f.Pointer() != av[name].Pointer() || f.Kind() == reflect.Int64 && f.Int() != av[name].Int() {
					t.Errorf("Merge changed the receiver's own %s", name)
				}
			case name == "MaxBufferedBags":
				if want := max(av[name].Int(), bv[name].Int()); f.Int() != want {
					t.Errorf("merged %s = %d, want the maximum %d", name, f.Int(), want)
				}
			default:
				if want := av[name].Int() + bv[name].Int(); f.Int() != want {
					t.Errorf("merged %s = %d, want the sum %d", name, f.Int(), want)
				}
			}
		})
	}
}
