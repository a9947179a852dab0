// Command benchmark is the repository's benchmark: it builds cmd/iphrd
// from the checked-out tree, starts real server processes, drives them
// over HTTP with two closed-loop clients, checks every answer against
// an in-process oracle, and prints every metric by name with its unit.
// README.md in this directory has the workloads, the metric glossary
// and how the metrics interact.
//
//	bash benchmark/run.sh                          # all four workloads, both passes
//	bash benchmark/run.sh -quick                   # the same in under a minute
//	bash benchmark/run.sh -workload warm_http -trace 0 -seed 7 -seconds 10
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics of the last workload run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds one pass of one workload, so a hung server cannot
// hold the benchmark (and its children) past the caller's patience.
const runLimit = 170 * time.Second

// outcome is one pass of one workload, as -out records it.
type outcome struct {
	Workload  string                    `json:"workload"`
	Trace     int                       `json:"trace"`
	Repeat    int                       `json:"repeat"`
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Error     string                    `json:"error,omitempty"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	seed := flag.Int64("seed", 1, "traffic seed: the same seed gives the same op streams")
	names := flag.String("workload", "", "comma-separated workloads to run (default: all of "+workloadNames()+")")
	seconds := flag.Int("seconds", 10, "length of the main phase in seconds (side phases scale with it)")
	trace := flag.Int("trace", -1, "0: end-to-end pass only; 1: per-layer pass only (traced run, restarts, layer walk); default both")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and print per-metric min/median/max")
	quick := flag.Bool("quick", false, "smoke mode: 3 s main phase, one set-up, one restart; results are stamped quick and are not a source for BENCHMARK.json")
	outPath := flag.String("out", "", "also write every pass's results to this JSON file")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		return 2
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *quick {
		*seconds = 3
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	s := settings{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, quick: *quick,
		root: root, outDir: filepath.Join(root, "benchmark", "out"),
	}
	if s.bin, err = buildServer(ctx, root, s.outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	passes := []bool{false, true}
	if *trace >= 0 {
		passes = []bool{*trace == 1}
	}
	var all []outcome
	history := make(map[string][]results) // workload/pass → one results per repeat
	ok := true
	for rep := 1; rep <= *repeat && ctx.Err() == nil; rep++ {
		for _, w := range selected {
			for _, traced := range passes {
				o := onePass(ctx, s, w, traced, rep, history)
				all = append(all, o)
				ok = ok && o.Correct
			}
		}
	}
	if *repeat > 1 {
		for _, w := range selected {
			for _, traced := range passes {
				fmt.Printf("\n== %s, %s: spread over %d repeats\n", w.name, passName(traced), *repeat)
				spread(os.Stdout, defsOf(traced), history[historyKey(w, traced)])
			}
		}
	}
	if *outPath != "" {
		doc := map[string]any{
			"quick": *quick, "seed": *seed, "seconds": *seconds, "cpus": runtime.NumCPU(),
			"corpus": map[string]int{"users": corpusUsers, "items": corpusItems, "ratings": corpusUsers * corpusPerUser},
			"passes": all,
		}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: -out:", err)
			ok = false
		}
	}
	if len(all) == 0 {
		return 1
	}
	// The driver's result line: the last pass run.
	last := all[len(all)-1]
	line, _ := json.Marshal(map[string]any{
		"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": last.Metrics,
	})
	fmt.Println(string(line))
	if !ok || ctx.Err() != nil {
		return 1
	}
	return 0
}

func passName(traced bool) string {
	if traced {
		return "per-layer pass"
	}
	return "end-to-end pass"
}

func defsOf(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func historyKey(w workload, traced bool) string { return w.name + "/" + passName(traced) }

// onePass runs one pass of one workload under runLimit, prints its
// report, and returns its record.
func onePass(ctx context.Context, s settings, w workload, traced bool, rep int, history map[string][]results) outcome {
	pctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	start := time.Now()
	r, err := runWorkload(pctx, s, w, traced)
	defs := defsOf(traced)
	if err == nil {
		if miss := r.res.missing(defs); len(miss) > 0 {
			err = fmt.Errorf("metrics not measured: %s", strings.Join(miss, ", "))
		}
	}
	o := outcome{Workload: w.name, Repeat: rep, Correct: err == nil && r.failed == 0,
		Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: r.res.wire(defs)}
	if traced {
		o.Trace = 1
	}
	fmt.Printf("\n== %s, %s (seed %d, %v main phase, repeat %d%s) took %.1fs\n",
		w.name, passName(traced), s.seed, s.seconds, rep, quickStamp(s.quick), time.Since(start).Seconds())
	r.res.print(os.Stdout, defs)
	if !traced {
		r.res.print(os.Stdout, []metricDef{{"machine.probe_ms", "ms"}})
	}
	if len(r.budget) > 0 {
		fmt.Println("  latency budget of a group query (medians, µs):")
		for _, b := range r.budget {
			fmt.Printf("    %-46s %12.1f\n", b.what, b.us)
		}
	}
	fmt.Printf("  requests: %d attempted, %d failed (fail_share %.6f)\n", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	if err != nil {
		o.Error = err.Error()
		fmt.Printf("  FAILED: %v\n", err)
	} else {
		history[historyKey(w, traced)] = append(history[historyKey(w, traced)], r.res)
	}
	return o
}

func quickStamp(quick bool) string {
	if quick {
		return ", QUICK"
	}
	return ""
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ",")
}

func selectWorkloads(list string) ([]workload, error) {
	if list == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range workloads {
			if w.name == strings.TrimSpace(name) {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
		}
	}
	return out, nil
}
