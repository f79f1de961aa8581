package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mitos-project/mitos"
)

// visitCountScript is the CI TCP smoke's Visit Count: three days of page
// visits, one reduceByKey per day.
const visitCountScript = `yesterdayCounts = empty()
day = 1
do {
  visits = readFile("pageVisitLog" + day)
  counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b)
  counts.writeFile("counts" + day)
  yesterdayCounts = counts
  day = day + 1
} while (day <= 3)
`

// TestBackendsWriteIdenticalBags runs one script through run three ways —
// the sequential interpreter, the simulated cluster and a TCP cluster of
// three in-process workers — and diffs the bags each writes to -out.
func TestBackendsWriteIdenticalBags(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	if err := os.Mkdir(data, 0o755); err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= 3; d++ {
		var b strings.Builder
		for i := 0; i < 400; i++ {
			fmt.Fprintf(&b, "page%d\n", (i*7+d*13)%53)
		}
		if err := os.WriteFile(filepath.Join(data, fmt.Sprintf("pageVisitLog%d.txt", d)), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	script := filepath.Join(dir, "visitcount.mitos")
	if err := os.WriteFile(script, []byte(visitCountScript), 0o644); err != nil {
		t.Fatal(err)
	}
	runWith := func(name string, args ...string) map[string][]string {
		t.Helper()
		fs := flag.NewFlagSet("mitos-run", flag.ContinueOnError)
		o := defineFlags(fs)
		out := filepath.Join(dir, "out_"+name)
		if err := fs.Parse(append(args, "-data", data, "-out", out)); err != nil {
			t.Fatal(err)
		}
		if err := run(script, *o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return readBags(t, out)
	}

	seq := runWith("seq", "-seq")
	if len(seq["counts3"]) == 0 {
		t.Fatalf("-seq wrote no counts3 bag: %v", seq)
	}
	sim := runWith("sim", "-cluster=sim", "-machines", "3")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mitos.ServeTCPWorkerLoop(mitos.TCPWorkerConfig{Coord: addr},
				mitos.TCPRedialConfig{Base: 20 * time.Millisecond}, stop)
		}()
	}
	tcp := runWith("tcp", "-cluster=tcp", "-listen", addr, "-workers", "3")
	close(stop)
	wg.Wait()

	for name, got := range map[string]map[string][]string{"sim": sim, "tcp": tcp} {
		if len(got) != len(seq) {
			t.Errorf("%s wrote %d bags, -seq %d", name, len(got), len(seq))
		}
		for bag, want := range seq {
			if !slices.Equal(got[bag], want) {
				t.Errorf("%s bag %s differs from -seq:\n got %v\nwant %v", name, bag, got[bag], want)
			}
		}
	}
}

// readBags reads every "<name>.txt" in dir as a sorted list of lines.
func readBags(t *testing.T, dir string) map[string][]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	bags := make(map[string][]string, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		slices.Sort(lines)
		bags[strings.TrimSuffix(filepath.Base(f), ".txt")] = lines
	}
	return bags
}
