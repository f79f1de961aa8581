// Quickstart: build a small iterative program with the Builder API, run it
// sequentially and distributed, and show both agree.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/mitos-project/mitos"
)

func main() {
	// Program: read a log of page visits, count visits per page, then
	// repeatedly drop the least significant half of the counts until at
	// most 3 pages remain — a data-dependent loop, written imperatively.
	b := mitos.NewBuilder()
	b.Assign("visits", mitos.ReadFile(mitos.StrLit("visits")))
	b.Assign("counts", mitos.ReduceByKey(
		mitos.MapBag(mitos.Var("visits"), mitos.Fn1("x", mitos.TupleOf(mitos.Var("x"), mitos.IntLit(1)))),
		mitos.Fn2("a", "c", mitos.Add(mitos.Var("a"), mitos.Var("c")))))
	b.Assign("threshold", mitos.IntLit(1))
	b.While(mitos.Gt(mitos.Only(mitos.CountBag(mitos.Var("counts"))), mitos.IntLit(3)),
		func(body *mitos.Builder) {
			body.Assign("threshold", mitos.Mul(mitos.Var("threshold"), mitos.IntLit(2)))
			body.Assign("counts", mitos.FilterBag(
				mitos.CrossBags(mitos.Var("counts"), mitos.NewBag(mitos.Var("threshold"))),
				mitos.Fn1("t", mitos.Gt(mitos.FieldOf(mitos.FieldOf(mitos.Var("t"), 0), 1), mitos.FieldOf(mitos.Var("t"), 1)))))
			body.Assign("counts", mitos.MapBag(mitos.Var("counts"),
				mitos.Fn1("t", mitos.FieldOf(mitos.Var("t"), 0))))
		})
	b.WriteFile(mitos.Var("counts"), mitos.StrLit("top"))

	prog, err := mitos.Build(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Program source:")
	fmt.Println(prog.Source())

	// Seed input: page i is visited 10*i times, so the loop's doubling
	// threshold peels pages off the bottom until at most 3 remain.
	st := mitos.NewMemStore()
	var visits []mitos.Value
	for page := 1; page <= 8; page++ {
		for v := 0; v < 10*page; v++ {
			visits = append(visits, mitos.Str(fmt.Sprintf("page%d", page)))
		}
	}
	if err := st.WriteDataset("visits", visits); err != nil {
		log.Fatal(err)
	}

	res, err := prog.Run(st, mitos.Config{Machines: 4})
	if err != nil {
		log.Fatal(err)
	}
	top, err := st.ReadDataset("top")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Distributed run: %d basic-block visits, %v, %d elements transferred\n",
		res.Steps, res.Duration.Round(0), res.Job.ElementsSent)
	fmt.Println("Top pages:")
	for _, e := range top {
		fmt.Printf("  %s\n", e)
	}

	// Cross-check against the sequential reference interpreter.
	ref := mitos.NewMemStore()
	if err := ref.WriteDataset("visits", visits); err != nil {
		log.Fatal(err)
	}
	if err := prog.RunSequential(ref); err != nil {
		log.Fatal(err)
	}
	refTop, _ := ref.ReadDataset("top")
	if len(refTop) != len(top) {
		log.Fatalf("sequential run disagrees: %d vs %d pages", len(refTop), len(top))
	}
	fmt.Println("Sequential reference agrees.")
}
