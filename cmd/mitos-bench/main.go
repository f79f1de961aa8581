// mitos-bench regenerates the paper's evaluation figures and prints one
// table per figure. With -json it also writes each figure's
// BENCH_<fig>.json; `mitos-bench -json all` regenerates every committed one.
//
//	mitos-bench [flags] [fig1|fig5|fig6|fig7|fig8|fig9|ablation|combine|chain|critpath|templates|delta|all]
//
// Every figure runs on the simulated cluster; Fig. 7's "Mitos (TCP)"
// column and the templates figure's TCP rows run on the real TCP backend
// (in-process workers over loopback sockets), the backend mitos-run's
// -cluster flag selects.
//
// With -http, a live introspection server runs for the duration of the
// sweep: every Mitos execution registers under /jobs, and /metrics serves
// the accumulated engine metrics in Prometheus exposition format.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/mitos-project/mitos/internal/experiments"
	"github.com/mitos-project/mitos/internal/obs"
	"github.com/mitos-project/mitos/internal/obs/httpserve"
)

func main() {
	quick := flag.Bool("quick", false, "shrink workloads for a fast run")
	reps := flag.Int("reps", 3, "measurements averaged per cell (paper: 3)")
	jsonOut := flag.Bool("json", false, "also write BENCH_<fig>.json per figure (medians, reps, engine counters)")
	httpAddr := flag.String("http", "", "serve live introspection (/metrics, /jobs) on this address for the duration of the sweep")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mitos-bench [flags] [fig1|fig5|fig6|fig7|fig8|fig9|ablation|combine|chain|critpath|templates|delta|all]")
		flag.PrintDefaults()
	}
	flag.Parse()

	o := experiments.Options{Quick: *quick, Reps: *reps}
	if *httpAddr != "" {
		o.Obs = obs.New()
		srv, err := httpserve.Serve(*httpAddr, o.Obs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mitos-bench: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		o.HTTP = srv
		fmt.Printf("introspection server listening on http://%s\n", srv.Addr())
	}
	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}

	table := map[string]func(experiments.Options) (*experiments.Table, error){
		"fig1": experiments.Fig1, "fig5": experiments.Fig5,
		"fig6": experiments.Fig6, "fig7": experiments.Fig7,
		"fig8": experiments.Fig8, "fig9": experiments.Fig9,
		"ablation": experiments.AblationGrid, "combine": experiments.Combine,
		"chain": experiments.Chain, "critpath": experiments.CritPath,
		"templates": experiments.Templates, "delta": experiments.Delta,
	}
	var tables []*experiments.Table
	if which == "all" {
		var err error
		tables, err = experiments.All(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mitos-bench: %v\n", err)
			os.Exit(1)
		}
	} else {
		f, ok := table[which]
		if !ok {
			flag.Usage()
			os.Exit(2)
		}
		t, err := f(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mitos-bench: %v\n", err)
			os.Exit(1)
		}
		tables = []*experiments.Table{t}
	}
	for _, t := range tables {
		fmt.Println(t.Format())
		if *jsonOut {
			b, err := t.JSON(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mitos-bench: %v\n", err)
				os.Exit(1)
			}
			name := "BENCH_" + t.Key + ".json"
			if err := os.WriteFile(name, b, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "mitos-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", name)
		}
	}
}
