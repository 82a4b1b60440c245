package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/models"
)

func TestSupportedQuantile(t *testing.T) {
	for _, c := range []struct {
		n       int
		q, want float64
	}{
		{100, 0.9, 0.9},  // exactly ten samples beyond p90
		{1000, 0.9, 0.9}, // more than enough
		{1000, 0.99, 0.99},
		{50, 0.9, 0.8}, // p90 of 50 leaves five beyond it; p80 leaves ten
		{96, 0.9, 1 - 10.0/96},
		{20, 0.9, 0.5}, // the median is the most twenty samples support
		{15, 0.9, 0.5}, // and the floor below that
		{3, 0.5, 0.5},
	} {
		if got := supportedQuantile(c.n, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("supportedQuantile(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 1..100, unsorted
	}
	m := summarize(xs, 0.9, "ms")
	if m.N != 100 || m.Q != 0.9 || m.Min != 1 || m.Max != 100 || math.Abs(m.Value-90.1) > 1e-9 {
		t.Errorf("summarize p90 of 1..100 = %+v", m)
	}
	if xs[0] != 100 {
		t.Error("summarize reordered its input")
	}
	if got := median([]float64{3, 1, 2}, "s").Value; got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{1, 2, 3, 10}, "s").Value; got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestSpanSelfTimeAndCoverage(t *testing.T) {
	// root [0,100) > step [10,90) > {grad [10,60), opt [60,80)}; the step's
	// last 10 and the root's outer 20 are glue.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "step", Start: 10, End: 90, Parent: 0, Step: 1},
		{Name: "grad", Start: 10, End: 60, Parent: 1, Step: 1},
		{Name: "opt", Start: 60, End: 80, Parent: 1, Step: 1},
	}
	want := []time.Duration{20, 10, 50, 20}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	if got := coverage(spans, 0); got != 0.7 {
		t.Errorf("coverage = %v, want 0.7", got)
	}
}

func TestTracerNestsAndWritesChrome(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	tr.nextStep()
	step := tr.begin("step")
	call := tr.begin("call")
	tr.end(call)
	tr.end(step)
	tr.end(root)
	if len(tr.spans) != 3 || tr.spans[2].Parent != step || tr.spans[1].Parent != root || tr.spans[2].Step != 1 || tr.spans[0].Step != 0 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, tr.spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[2].Name != "call" || doc.TraceEvents[2].Ph != "X" {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}

	var none *tracer // a nil tracer records nothing and does not panic
	none.end(none.begin("x"))
	none.nextStep()
}

func TestWallsAlternateAndGap(t *testing.T) {
	var order []string
	call := func(name string, ds ...time.Duration) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			order = append(order, name)
			d := ds[0]
			ds = ds[1:]
			return d, nil
		}
	}
	var ws walls
	a, b := call("a", 100, 130, 100), call("b", 120, 104, 140)
	if err := ws.add(2, a, b); err != nil {
		t.Fatal(err)
	}
	if err := ws.add(1, a, b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abbaab" {
		t.Errorf("call order %s, want abbaab: the side that goes first alternates", got)
	}
	if got := ws.gap(); math.Abs(got-0.04) > 1e-12 {
		t.Errorf("gap of the shortest walls = %v, want 104/100-1", got)
	}
}

// A reading outside a timing limit is recorded but is not a wrong output: the
// driver runs on a host whose noise alone can cause one.
func TestLimitLeavesTheRunCorrect(t *testing.T) {
	rep := newReport(workloads()[0], 1, true)
	rep.mirrorLimits([]span{{Name: "root", Start: 0, End: 100, Parent: -1}, {Name: "call", Start: 0, End: 50, Parent: 0}},
		walls{{100, 110}, {140, 150}})
	if len(rep.Limits) != 2 || rep.Limits[0].OK || rep.Limits[1].OK || rep.Limits[1].Detail == "" {
		t.Errorf("limits = %+v, want coverage 0.5 and gap +40 %% both outside", rep.Limits)
	}
	if !rep.Correct || len(rep.Checks) != 0 {
		t.Errorf("a reading outside a limit made the run incorrect: %+v", rep)
	}
	if rep.check("an output", false, "differs"); rep.Correct {
		t.Error("a failed check left the run correct")
	}
}

func TestFitLine(t *testing.T) {
	x := []float64{1, 2, 4, 8, 16}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 100 + 25*x[i]
	}
	base, slope := fitLine(x, y)
	if math.Abs(base-100) > 1e-9 || math.Abs(slope-25) > 1e-9 {
		t.Errorf("fitLine = %v + %v·x, want 100 + 25·x", base, slope)
	}
	if base, slope := fitLine([]float64{4, 4}, []float64{10, 20}); base != 15 || slope != 0 {
		t.Errorf("fitLine of one batch size = %v + %v·x, want the mean", base, slope)
	}
}

func TestJudge(t *testing.T) {
	rate := decl{Name: "items_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	rss := decl{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10}
	acc, failed := alsoJudged[0], alsoJudged[1]
	m := func(v, lo, hi float64) metric { return metric{Value: v, Min: lo, Max: hi, N: 3} }
	for _, c := range []struct {
		name string
		d    decl
		a, b metric
		want verdict
	}{
		{"within the bound", rate, m(1000, 990, 1010), m(950, 940, 960), ok},
		{"better", rate, m(1000, 990, 1010), m(1500, 1490, 1510), ok},
		{"worse by more than the bound", rate, m(1000, 990, 1010), m(850, 840, 860), worse},
		{"spread wider than the bound, ranges overlap", rate, m(1000, 900, 1100), m(980, 880, 1050), unresolved},
		{"wide spread but every repeat worse", rate, m(1000, 900, 1100), m(700, 650, 800), worse},
		{"wide spread but every repeat better", rate, m(1000, 900, 1100), m(1500, 1400, 1600), ok},
		{"lower is better: grew past the bound", rss, metric{Value: 100}, metric{Value: 115}, worse},
		{"lower is better: shrank", rss, metric{Value: 100}, metric{Value: 60}, ok},
		{"absolute bound: same accuracy", acc, m(0.945, 0.945, 0.945), m(0.945, 0.945, 0.945), ok},
		{"absolute bound: accuracy fell by 0.01", acc, m(0.945, 0.945, 0.945), m(0.935, 0.935, 0.935), worse},
		{"absolute bound: accuracy rose", acc, m(0.705, 0.705, 0.705), m(0.9, 0.9, 0.9), ok},
		{"zero bound: nothing failed", failed, m(0, 0, 0), m(0, 0, 0), ok},
		{"zero bound: every run had failures", failed, m(0, 0, 0), m(0.01, 0.01, 0.02), worse},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	// A document of three runs per workload whose items_per_s are the given
	// rates; edit changes one run before it is filed.
	mk := func(rates [3]float64, edit func(*report)) document {
		var doc document
		for _, w := range workloads() {
			res := workloadResult{Name: w.name}
			for _, rate := range rates {
				rep := newReport(w, 1, false)
				for _, d := range endToEnd {
					rep.Metrics[d.Name] = value(100, d.Unit)
				}
				rep.Metrics["items_per_s"] = value(rate, "1/s")
				rep.Metrics["ops_failed_frac"] = value(0, "fraction")
				if !w.serving {
					rep.Metrics["train_test_acc"] = value(0.9, "fraction")
				}
				if edit != nil {
					edit(rep)
				}
				res.EndToEnd = append(res.EndToEnd, rep)
			}
			doc.Workloads = append(doc.Workloads, res)
		}
		return doc
	}
	dir := t.TempDir()
	write := func(name string, doc document) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk([3]float64{990, 1000, 1010}, nil))
	for _, c := range []struct {
		name    string
		b       document
		code    int
		wantErr bool
		says    verdict
	}{
		{"same", mk([3]float64{985, 990, 1000}, nil), 0, false, ok},
		{"slow", mk([3]float64{490, 500, 510}, nil), 1, false, worse},
		{"one run in a slow phase", mk([3]float64{700, 980, 1000}, nil), 0, false, unresolved},
		{"failed check", mk([3]float64{990, 1000, 1010}, func(r *report) { r.Correct = false }), 1, false, ok},
		{"accuracy fell", mk([3]float64{990, 1000, 1010}, func(r *report) {
			if _, has := r.Metrics["train_test_acc"]; has {
				r.Metrics["train_test_acc"] = value(0.45, "fraction")
			}
		}), 1, false, worse},
		{"no peak_rss_mb", mk([3]float64{990, 1000, 1010}, func(r *report) { delete(r.Metrics, "peak_rss_mb") }), 0, true, ""},
		{"no train_test_acc", mk([3]float64{990, 1000, 1010}, func(r *report) { delete(r.Metrics, "train_test_acc") }), 0, true, ""},
	} {
		var out bytes.Buffer
		code, err := compareFiles(&out, base, write("b.json", c.b))
		if (err != nil) != c.wantErr || code != c.code || !strings.Contains(out.String(), string(c.says)) {
			t.Errorf("%s: code %d, err %v, want code %d, error %v and a %q\n%s", c.name, code, err, c.code, c.wantErr, c.says, out.String())
		}
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, in step with the lists this package reports from.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &file); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(file.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(file.Workloads), len(ws))
	}
	for i, w := range ws {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, file.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got, want []decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}

// TestWorkloadOperationCounts pins the operation counts the throughput
// metrics are multiplied by to the model specs.
func TestWorkloadOperationCounts(t *testing.T) {
	ws := workloads()
	conv, fc, prog, s32 := ws[0], ws[1], ws[2], ws[3]
	if got, want := conv.flopsPerItem(), float64(models.MicroAlexNetSpec(geom).TrainFLOPsPerImage()); got != want {
		t.Errorf("train_conv_f32 flops per image = %v, want the spec's %v", got, want)
	}
	if got, want := s32.flopsPerItem(), float64(models.MicroAlexNetSpec(geom).FLOPsPerImage()); got != want {
		t.Errorf("serve_f32 flops per request = %v, want the spec's %v", got, want)
	}
	spec := models.MicroConvNetSpec(geom)
	want := float64(2*spec.TrainFLOPsPerImageAt(12, 12)+2*spec.TrainFLOPsPerImageAt(24, 24)) / 4
	if got := prog.flopsPerItem(); got != want {
		t.Errorf("train_conv_f16_prog flops per image = %v, want %v over its four epochs", got, want)
	}
	// The MLP has no spec: its weights are its multiply-accumulates.
	var weights int64
	for _, p := range fc.model(1).Params() {
		if len(p.W.Shape) == 2 {
			weights += int64(p.Numel())
		}
	}
	if got := fc.macs(fc.micro, 24, 24); got != weights {
		t.Errorf("train_fc_comm MACs = %d, want the %d weights of its linear layers", got, weights)
	}
	if conv.items() != 3*2176 || fc.items() != 1792 || prog.items() != 4*1024 || s32.items() != 6000 {
		t.Errorf("items per call: %d %d %d %d", conv.items(), fc.items(), prog.items(), s32.items())
	}
	for _, w := range ws[:3] {
		if steps := w.train.Epochs * w.stepsPerEpoch(); steps < 100 {
			t.Errorf("%s: %d optimizer steps per call, want at least 100", w.name, steps)
		}
	}
}

// TestSmoke runs both runs of all five workloads at a fraction of their size
// with every check on, so a change to core.Train, serve.Pool.Run or anything
// under them that breaks the benchmark or its mirror loops fails here.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, w := range workloads() {
		w := w.shrunk()
		for _, trace := range []bool{false, true} {
			rep, spans, err := runWorkload(w, 1, 0, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("%s trace=%v: %s: %s", w.name, trace, c.Name, c.Detail)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 || len(rep.Checks) == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d checks=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed, len(rep.Checks))
			}
			decls := endToEnd
			if trace {
				decls = perLayer
				if len(spans) == 0 {
					t.Errorf("%s: the traced run recorded no spans", w.name)
				}
			}
			for _, d := range decls {
				m, found := rep.Metrics[d.Name]
				if d.Name == "peak_rss_mb" {
					continue // read by runOne from the child process
				}
				if !found || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", w.name, trace, d.Name, m)
				}
			}
			if _, err := json.Marshal(rep); err != nil {
				t.Errorf("%s trace=%v: report does not marshal: %v", w.name, trace, err)
			}
		}
	}
}

// TestRunOnePrintsTheContractLine checks what the driver reads: the last
// line, the result file and the exit code.
func TestRunOnePrintsTheContractLine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var stdout, stderr bytes.Buffer
	out := t.TempDir()
	w, err := findWorkload("serve_f32")
	if err != nil {
		t.Fatal(err)
	}
	if code, err := runOne(&stdout, w.shrunk(), 2, 0, false, out); code != 0 || err != nil {
		t.Fatalf("exit code %d, %v\n%s", code, err, stdout.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var line map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, stdout.String())
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, found := line[k]; !found {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want 4", len(line))
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if m := metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("metric %s = %+v", d.Name, m)
		}
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	if _, err := os.Stat(resultPath(out, "serve_f32", 2, false)); err != nil {
		t.Error(err)
	}
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}
