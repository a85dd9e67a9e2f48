// Command perfbench is the Canopus benchmark: it drives one workload
// (refactor, campaign or serve) from a single closed-loop caller for a fixed
// wall-clock window, checks every output, and prints a report followed by a
// one-line JSON result.
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a traced run, in which the benchmark
// replays the layer calls each operation makes (decimate, delta, compress,
// adios, storage) on the same data and attributes the operation's wall time
// to them. See README.md.
//
// Usage:
//
//	perfbench -workload serve -seed 3 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	cfg := config{size: paperSize}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: refactor, campaign or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant, 0 the end-to-end one")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "file the traced run writes its spans to as JSON lines (empty: keep them in memory only)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *trace == 1

	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res.writeReport(os.Stdout)
	if err := res.writeJSON(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed or returned wrong output\n", res.failed, res.attempted)
		os.Exit(1)
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	size     size
}

// size fixes the scale of a workload's inputs. paperSize is what the
// benchmark measures; tinySize keeps the package's own tests fast.
type size struct {
	rings, segments int   // XGC1 mesh resolution (0 = the paper's plane)
	levels, chunks  int   // core.Options.Levels and Chunks
	campaigns       int   // serve: campaigns spread over the shards
	tileCacheBytes  int64 // serve: decoded-tile cache budget per shard
	setups          int   // set-ups per run; setup_s is their median
	roundSteps      int   // campaign: steps written, then scanned, per round
}

var paperSize = size{
	levels: 4, chunks: 4,
	campaigns: 8, tileCacheBytes: 512 << 10,
	setups: 3, roundSteps: 32,
}

var tinySize = size{
	rings: 6, segments: 48,
	levels: 3, chunks: 2,
	campaigns: 3, tileCacheBytes: 16 << 10,
	setups: 2, roundSteps: 4,
}

// run executes one workload and summarizes it.
func run(ctx context.Context, cfg config) (*result, error) {
	b := newBench(cfg)
	steal0 := stealSeconds()
	var err error
	switch cfg.workload {
	case "refactor":
		err = runRefactor(ctx, b)
	case "campaign":
		err = runCampaign(ctx, b)
	case "serve":
		err = runServe(ctx, b)
	default:
		return nil, fmt.Errorf("unknown workload %q (want refactor, campaign or serve)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace && cfg.traceOut != "" {
		if err := b.tr.writeFile(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	res := b.summarize()
	if steal1 := stealSeconds(); steal0 >= 0 && steal1 >= 0 {
		res.host.StealS = steal1 - steal0
	}
	return res, nil
}

// host is the block every report carries so numbers from different machines
// are not compared blindly.
type host struct {
	NumCPU, GOMAXPROCS int
	GOARCH, GOOS, Go   string
	// StealS is the CPU time the hypervisor gave other tenants while the
	// run lasted, summed over this machine's CPUs; -1 where unknown. Runs
	// with seconds of steal are slow for reasons outside the program.
	StealS float64
}

func thisHost() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GOOS:       runtime.GOOS,
		Go:         runtime.Version(),
		StealS:     -1,
	}
}

// stealSeconds reads the steal column of /proc/stat: CPU time since boot
// that the hypervisor took from this machine's CPUs. It returns -1 where
// that is not available.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// writeJSON prints the one-line result: the end-to-end metrics, or with
// tracing the per-layer ones.
func (r *result) writeJSON(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range r.jsonMetrics() {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
