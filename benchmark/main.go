// Command benchmark measures the whole stack — kernel rung to training epoch
// and served request — on five workloads, from outside the program: the
// end-to-end figures come from core.Train and serve.Pool.Run with nothing
// profiled, the per-layer figures from a separate traced run whose spans are
// recorded in this directory's files only. See README.md.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one run, one JSON line last
//	benchmark [-seed N] [-seconds S]                         every workload, each in a child process
//	benchmark -compare A.json B.json                         verdict per workload and end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// decl declares one metric: its unit, which direction is better, and for
// end-to-end metrics the bound by which it may worsen before -compare calls
// it worse — a share of the baseline's median, or with abs a difference in
// the metric's own unit. BENCHMARK.json repeats the endToEnd and perLayer
// lists for the driver; a test keeps the two in step.
type decl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`

	abs       bool // Bound is a difference, not a share
	trainOnly bool // only training workloads report it
}

// endToEnd lists the metrics of an untraced run that every workload reports
// and the result line carries.
var endToEnd = []decl{
	{Name: "items_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "gflop_per_s", Unit: "GFLOP/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// alsoJudged lists the end-to-end metrics the driver's contract cannot carry
// — one is zero on a healthy run, the other exists on training workloads
// only — and -compare judges all the same, from the result files.
var alsoJudged = []decl{
	{Name: "train_test_acc", Unit: "fraction", Better: "higher", Bound: 0.005, abs: true, trainOnly: true},
	{Name: "ops_failed_frac", Unit: "fraction", Better: "lower", Bound: 0, abs: true},
}

// perLayer lists the traced run's metrics that every workload measures: the
// loop figures common to both mirror loops and the stand-alone probes. A
// traced run reports more — the metrics only a training loop or only a
// serving loop has (README.md lists them) — in its result file.
var perLayer = []decl{
	{Name: "loop.step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "loop.step_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "loop.alloc_kb_per_step", Unit: "KB", Better: "lower"},
	{Name: "loop.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "loop.mirror_gap_frac", Unit: "fraction", Better: "lower"},
	{Name: "loop.trace_overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "loop.span_coverage_frac", Unit: "fraction", Better: "higher"},
	{Name: "nn.fwd_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "nn.loss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "nn.bwd_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "nn.eval_fwd_ms_b1", Unit: "ms", Better: "lower"},
	{Name: "nn.eval_fwd_ms_b16", Unit: "ms", Better: "lower"},
	{Name: "nn.fwd_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "nn.fwd_allocs", Unit: "count", Better: "lower"},
	{Name: "tensor.gemm_f32_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_f16_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.im2col_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.packhalf_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "par.gemm_speedup", Unit: "x", Better: "higher"},
	{Name: "kernel.gemm_f32_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "kernel.gemm_f16_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "kernel.reduce_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "kernel.half_encode_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "kernel.half_decode_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "kernel.resize_mpix_per_s", Unit: "Mpix/s", Better: "higher"},
	{Name: "data.gather_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "data.augment_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "data.shuffle_ms", Unit: "ms", Better: "lower"},
	{Name: "opt.step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "opt.scaler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "compress.fp16_encode_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "compress.fp16_decode_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "dist.allreduce_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.write_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.read_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "models.train_flops_per_img", Unit: "flop", Better: "higher"},
	{Name: "models.params", Unit: "count", Better: "lower"},
}

// resultLine is the one JSON object a single run prints last.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rounds is how many end-to-end runs of each workload a full document
// holds. They are interleaved — every workload once, then every workload
// again — so that the runs of one workload lie minutes apart and their
// spread is the run-to-run spread -compare needs, not one process's.
const rounds = 3

// workloadResult holds the runs of one workload in the full document: one
// end-to-end run per round and the traced run.
type workloadResult struct {
	Name     string    `json:"name"`
	Why      string    `json:"why"`
	EndToEnd []*report `json:"end_to_end"`
	PerLayer *report   `json:"per_layer"`
}

// document is what the command prints when it runs every workload.
type document struct {
	Host      map[string]any   `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "seed of the generated dataset, request trace and Config.Seed")
	seconds := fs.Int("seconds", 15, "how long the timed repeats of one run last")
	trace := fs.Int("trace", 0, "with -workload: 0 the end-to-end run, 1 the traced per-layer run")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for result and trace files")
	compare := fs.Bool("compare", false, "compare two documents: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	code := 0
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two files")
			return 2
		}
		code, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case *name != "":
		var w workload
		if w, err = findWorkload(*name); err == nil {
			code, err = runOne(stdout, w, *seed, *seconds, *trace != 0, *out)
		}
	default:
		code, err = runAll(stdout, stderr, *seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return code
}

func resultPath(out, workload string, seed uint64, trace bool) string {
	kind := "end_to_end"
	if trace {
		kind = "per_layer"
	}
	return filepath.Join(out, fmt.Sprintf("%s.seed%d.%s.json", workload, seed, kind))
}

// runOne runs one workload in this process with two threads, writes the
// full report (and the Chrome trace of a traced run) under out, and prints
// the declared metrics as the last line. It exits non-zero if a check of the
// program's output failed; a reading outside a timing limit is only printed.
func runOne(stdout io.Writer, w workload, seed uint64, seconds int, trace bool, out string) (int, error) {
	name := w.name
	runtime.GOMAXPROCS(2)
	rep, spans, err := runWorkload(w, seed, time.Duration(seconds)*time.Second, trace)
	if err != nil {
		return 0, err
	}
	decls := perLayer
	if !trace {
		decls = endToEnd
		rss, err := peakRSSMB()
		if err != nil {
			return 0, err
		}
		rep.Metrics["peak_rss_mb"] = value(rss, "MB")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, err
	}
	if err := writeJSON(resultPath(out, name, seed, trace), rep); err != nil {
		return 0, err
	}
	if trace {
		path := filepath.Join(out, fmt.Sprintf("%s.seed%d.trace.json", name, seed))
		f, err := os.Create(path)
		if err != nil {
			return 0, err
		}
		if err := writeChrome(f, spans); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	for _, c := range rep.Checks {
		if !c.OK {
			fmt.Fprintf(stdout, "FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	for _, c := range rep.Limits {
		if !c.OK {
			fmt.Fprintf(stdout, "OUTSIDE LIMIT %s: %s\n", c.Name, c.Detail)
		}
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	for _, d := range decls {
		m, ok := rep.Metrics[d.Name]
		if !ok {
			return 0, fmt.Errorf("%s did not measure %s", name, d.Name)
		}
		line.Metrics[d.Name] = metric{Value: m.Value, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.Correct {
		return 1, nil
	}
	return 0, nil
}

// runAll runs the end-to-end run of every workload once per round and then
// the traced run of every workload, each in a fresh child process of this
// binary, and prints one document with every metric by name.
func runAll(stdout, stderr io.Writer, seed uint64, seconds int, out string) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	code := 0
	child := func(w workload, trace bool) (*report, error) {
		t := "0"
		if trace {
			t = "1"
		}
		fmt.Fprintf(stderr, "benchmark: %s trace %s\n", w.name, t)
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", t, "-out", out)
		cmd.Stderr = stderr
		path := resultPath(out, w.name, seed, trace)
		os.Remove(path) // a child that dies must not leave an older run's result to be read
		if err := cmd.Run(); err != nil {
			if _, failed := err.(*exec.ExitError); !failed {
				return nil, err
			}
			code = 1
		}
		rep := new(report)
		if err := readJSON(path, rep); err != nil {
			return nil, fmt.Errorf("%s trace %s left no result: %w", w.name, t, err)
		}
		return rep, nil
	}
	doc := document{Host: hostInfo(), Seed: seed, Seconds: seconds}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, workloadResult{Name: w.name, Why: w.why})
	}
	for round := 0; round <= rounds; round++ { // the last pass is the traced runs
		for i, w := range workloads() {
			rep, err := child(w, round == rounds)
			if err != nil {
				return 0, err
			}
			if round == rounds {
				doc.Workloads[i].PerLayer = rep
			} else {
				doc.Workloads[i].EndToEnd = append(doc.Workloads[i].EndToEnd, rep)
			}
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", " ")
	return code, enc.Encode(doc)
}

// hostInfo describes the machine a document was measured on.
func hostInfo() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": 2, "go": runtime.Version(), "cpu": cpu}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
