package harness

import (
	"fmt"
	"maps"
	"strings"
	"testing"
)

// fastSetup shrinks the measured experiments to seconds for unit tests;
// the full tuned configuration runs in cmd/experiments and the benches.
func fastSetup() *Setup {
	s := DefaultSetup()
	s.TrainSize = 512
	s.ImageSize = 12
	s.Width = 4
	s.Epochs = 3
	return s
}

// sweep is the one setup the measured tables' tests share, as
// cmd/experiments shares one: whichever test needs a configuration first
// trains it, and the others read the result.
var sweep = fastSetup()

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "Table X", Title: "demo", Header: []string{"a", "bb"}}
	tbl.Add("1", "2")
	tbl.Note("hello %d", 42)
	s := tbl.String()
	for _, want := range []string{"Table X", "a", "bb", "hello 42"} {
		if !strings.Contains(s, want) {
			t.Errorf("text rendering missing %q:\n%s", want, s)
		}
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "| --- | --- |") {
		t.Errorf("markdown rendering malformed:\n%s", md)
	}
}

// TestAllreduceStudyMechanics drives the engine-backed exhibit at test
// scale: one row per flat topology plus the two-tier hierarchical split
// (intra, inter, total), and the observed message/round columns must equal
// the closed-form model columns (they share the table).
func TestAllreduceStudyMechanics(t *testing.T) {
	tbl, err := AllreduceStudy(fastSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("%d rows, want 3 flat topologies + 3 hierarchical (intra/inter/total)", len(tbl.Rows))
	}
	if tbl.Rows[3][0] != "2x2 ring/tree intra" || tbl.Rows[4][0] != "2x2 ring/tree inter" {
		t.Fatalf("hierarchical rows mislabelled: %q, %q", tbl.Rows[3][0], tbl.Rows[4][0])
	}
	for _, row := range tbl.Rows {
		if row[1] != row[4] {
			t.Errorf("%s: observed %s messages vs model %s", row[0], row[1], row[4])
		}
		if row[3] != row[5] {
			t.Errorf("%s: observed %s rounds vs model %s", row[0], row[3], row[5])
		}
	}
}

func TestAnalyticTables(t *testing.T) {
	cases := []struct {
		tbl      *Table
		wantRows int
		wantCell string
	}{
		{Table3(), 2, "75.3%"},
		{Table4(), 3, "Facebook (Goyal et al. 2017)"},
		{Table6(), 2, "61M"},
		{Table10(), 6, "75.4%"},
		{Table11(), 3, "Mellanox 56Gb/s FDR IB"},
		{Table12(), 7, "640"},
		{Figure8(), 8, "225000"},
		{Figure9(), 8, ""},
		{Figure10(), 8, ""},
	}
	for _, tc := range cases {
		if len(tc.tbl.Rows) != tc.wantRows {
			t.Errorf("%s: %d rows, want %d", tc.tbl.ID, len(tc.tbl.Rows), tc.wantRows)
		}
		if tc.wantCell != "" && !strings.Contains(tc.tbl.String(), tc.wantCell) {
			t.Errorf("%s: missing cell %q", tc.tbl.ID, tc.wantCell)
		}
	}
}

func TestTable2Model(t *testing.T) {
	tbl := Table2(0.1, 0.01)
	if len(tbl.Rows) != 6 {
		t.Fatalf("Table 2 has %d rows", len(tbl.Rows))
	}
	// First row: 250,000 iterations at batch 512 (the paper's exact value).
	if tbl.Rows[0][2] != "250000" {
		t.Fatalf("Table 2 row 0 iterations = %s", tbl.Rows[0][2])
	}
	// Last row: the extreme 1.28M batch on 2500 GPUs, 100 iterations.
	if tbl.Rows[5][2] != "100" {
		t.Fatalf("Table 2 extreme row iterations = %s", tbl.Rows[5][2])
	}
}

func TestSimulatedTables(t *testing.T) {
	t1 := Table1()
	if len(t1.Rows) != 2 {
		t.Fatalf("Table 1 rows = %d", len(t1.Rows))
	}
	t8 := Table8()
	if len(t8.Rows) != 5 {
		t.Fatalf("Table 8 rows = %d", len(t8.Rows))
	}
	t9 := Table9()
	if len(t9.Rows) != 10 {
		t.Fatalf("Table 9 rows = %d", len(t9.Rows))
	}
	f3 := Figure3()
	if !strings.Contains(f3.String(), "out of memory") {
		t.Error("Figure 3 must show the OOM point")
	}
	f7 := Figure7()
	if len(f7.Rows) != 2 {
		t.Fatalf("Figure 7 rows = %d", len(f7.Rows))
	}
	// No simulated row may be OOM except where the paper itself hit limits.
	for _, tbl := range []*Table{t1, t8, t9} {
		for _, row := range tbl.Rows {
			for _, cell := range row {
				if cell == "OOM" {
					t.Errorf("%s: unexpected OOM row %v", tbl.ID, row)
				}
			}
		}
	}
}

func TestMeasuredFigure1Mechanics(t *testing.T) {
	tbl, err := Figure1(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("Figure 1 rows = %d, want 5", len(tbl.Rows))
	}
	if !strings.Contains(tbl.String(), "baseline") {
		t.Error("Figure 1 must include the baseline row")
	}
}

func TestMeasuredTable7Mechanics(t *testing.T) {
	tbl, err := Table7(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("Table 7 rows = %d, want 5", len(tbl.Rows))
	}
}

func TestMeasuredFigure4Mechanics(t *testing.T) {
	tbl, err := Figure4(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != sweep.Epochs {
		t.Fatalf("Figure 4 rows = %d, want %d", len(tbl.Rows), sweep.Epochs)
	}
}

func TestMeasuredFigure5and6Mechanics(t *testing.T) {
	tbl, err := Figure5and6(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != sweep.Epochs {
		t.Fatalf("Figures 5&6 rows = %d, want %d", len(tbl.Rows), sweep.Epochs)
	}
	// GFLOPs column must be monotonically increasing.
	prev := ""
	for _, row := range tbl.Rows {
		if row[1] <= prev && prev != "" && len(row[1]) == len(prev) {
			t.Errorf("flops column not increasing: %s after %s", row[1], prev)
		}
		prev = row[1]
	}
}

func TestMeasuredTable5Mechanics(t *testing.T) {
	if testing.Short() {
		t.Skip("7 training runs")
	}
	tbl, err := Table5(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("Table 5 rows = %d, want 7", len(tbl.Rows))
	}
}

// TestMeasuredSweepTrainsEachConfigOnce: the five measured tables are views
// of one sweep. Figure 1 trains nine configurations and Table 5 six more
// (its x1 row is Figure 1's linear run at the large batch); Table 7,
// Figure 4 and Figures 5 & 6 train nothing new. A second pass over all
// five trains nothing (every kept result is the same one) and renders the
// same bytes.
func TestMeasuredSweepTrainsEachConfigOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("15 training runs")
	}
	render := func() string {
		var b strings.Builder
		for _, table := range []func(*Setup) (*Table, error){Figure1, Table5, Table7, Figure4, Figure5and6} {
			tbl, err := table(sweep)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(tbl.Markdown())
		}
		return b.String()
	}
	first := render()
	if n := len(sweep.runs); n != 15 {
		t.Fatalf("the five measured tables trained %d configurations, want 15", n)
	}
	kept := maps.Clone(sweep.runs)
	if render() != first {
		t.Fatal("a second pass over the sweep rendered other bytes")
	}
	if !maps.Equal(sweep.runs, kept) {
		t.Fatal("a second pass over the sweep trained again")
	}
}

func TestWarmupForMirrorsPaper(t *testing.T) {
	s := DefaultSetup()
	if s.WarmupFor(256) >= s.WarmupFor(1024) {
		t.Error("warmup should grow with batch size")
	}
	if s.WarmupFor(2048) != 12 {
		t.Errorf("extreme batch warmup = %v, want 12", s.WarmupFor(2048))
	}
}

// TestElasticityStudyDeterministic: the elasticity exhibit rides in the
// docs-drift-checked analytic subset, so two generations must render
// bit-identically, every model cross-check must be exact, and the scripted
// preemption must actually evict.
func TestElasticityStudyDeterministic(t *testing.T) {
	a, err := ElasticityStudy()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ElasticityStudy()
	if err != nil {
		t.Fatal(err)
	}
	if a.Markdown() != b.Markdown() {
		t.Fatal("ElasticityStudy does not regenerate bit-identically")
	}
	if len(a.Rows) != 4 {
		t.Fatalf("study has %d rows, want central/tree/ring/hierarchy", len(a.Rows))
	}
	for _, row := range a.Rows {
		if row[6] != "exact" {
			t.Fatalf("%s: degraded schedule drifted from the closed form: %s", row[0], row[6])
		}
		if row[2] == "step -1" {
			t.Fatalf("%s: the scripted death never led to an eviction", row[0])
		}
	}
}

// TestHotLoopStudyMechanics: the hot-loop exhibit produces one row per
// reduction policy, verifies both policies' determinism contracts for real
// (the identity column must read "exact"), and its Markdown carries the
// volatile marker so docsdrift compares shape rather than timings.
func TestHotLoopStudyMechanics(t *testing.T) {
	tab, err := HotLoopStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("HotLoop study has %d rows, want 2 (one per policy)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] != "exact" {
			t.Fatalf("policy %s identity check failed: %q", row[0], row[1])
		}
	}
	if !tab.Volatile {
		t.Fatal("HotLoop study must be marked volatile (its timing cells vary per machine)")
	}
	if md := tab.Markdown(); !strings.Contains(md, VolatileMarker) {
		t.Fatal("volatile table's Markdown lacks the drift marker")
	}
}

// TestMixedPrecisionStudyMechanics: the mixed-precision exhibit produces one
// row per precision, both identity contracts must hold bitwise (with the
// f16-vs-f32 negative control enforced inside the study), the f16 row must
// report loss-scaler activity, and the table is volatile.
func TestMixedPrecisionStudyMechanics(t *testing.T) {
	tab, err := MixedPrecisionStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("MixedPrecision study has %d rows, want 2 (one per precision)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] != "exact" {
			t.Fatalf("precision %s identity check failed: %q", row[0], row[1])
		}
	}
	if tab.Rows[0][4] != "—" {
		t.Fatalf("f32 row reports a loss scale: %q", tab.Rows[0][4])
	}
	if !strings.HasPrefix(tab.Rows[1][4], "2^") {
		t.Fatalf("f16 row's loss scale %q is not a power of two", tab.Rows[1][4])
	}
	if !tab.Volatile {
		t.Fatal("MixedPrecision study must be marked volatile (its timing cells vary per machine)")
	}
}

// TestProgressiveResolutionStudyMechanics: the progressive-resolution
// exhibit produces one row per schedule, both dynamic-shape identity
// contracts must hold bitwise (with the progressive-vs-fixed negative
// control enforced inside the study), the progressive row must report a
// two-phase FLOP curve with positive analytic savings, and the table is
// volatile.
func TestProgressiveResolutionStudyMechanics(t *testing.T) {
	tab, err := ProgressiveResolutionStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("ProgressiveResolution study has %d rows, want 2 (one per schedule)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] != "exact" {
			t.Fatalf("schedule %s identity check failed: %q", row[0], row[1])
		}
	}
	if strings.Contains(tab.Rows[0][5], ",") {
		t.Fatalf("fixed row reports multiple phases: %q", tab.Rows[0][5])
	}
	if !strings.Contains(tab.Rows[1][5], "16x16") || !strings.Contains(tab.Rows[1][5], "24x24") {
		t.Fatalf("progressive row's phase curve %q lacks both resolutions", tab.Rows[1][5])
	}
	if tab.Rows[0][7] != "0.0%" {
		t.Fatalf("fixed row should save no FLOPs, got %q", tab.Rows[0][7])
	}
	if tab.Rows[1][7] == "0.0%" || strings.HasPrefix(tab.Rows[1][7], "-") {
		t.Fatalf("progressive row's analytic savings %q should be positive", tab.Rows[1][7])
	}
	if !tab.Volatile {
		t.Fatal("ProgressiveResolution study must be marked volatile (its wall cells vary per machine)")
	}
}

// TestServeStudyDeterministic: the serve exhibit runs entirely on the
// virtual clock, so it rides the byte-exact analytic subset: two
// generations must render bit-identically, every uniform-regime row's
// model cross-check must be exact, the overload row must actually reject,
// and the in-study controls (MaxDelay negative control, replica
// invariance) are enforced inside ServeStudy itself — an error here means
// one of them fired.
func TestServeStudyDeterministic(t *testing.T) {
	a, err := ServeStudy()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ServeStudy()
	if err != nil {
		t.Fatal(err)
	}
	if a.Markdown() != b.Markdown() {
		t.Fatal("ServeStudy does not regenerate bit-identically")
	}
	if a.Volatile {
		t.Fatal("ServeStudy is exact virtual-clock arithmetic; it must not be volatile")
	}
	uniform, rejected := 0, false
	for _, row := range a.Rows {
		switch {
		case strings.HasPrefix(row[0], "uniform/"):
			uniform++
			if row[len(row)-1] != "exact" {
				t.Fatalf("%s: model drifted: %s", row[0], row[len(row)-1])
			}
		case strings.Contains(row[0], "overload"):
			if row[8] == "0" {
				t.Fatalf("%s: overload row rejected nothing", row[0])
			}
			rejected = true
		case strings.HasPrefix(row[0], "sizing/"):
			if row[len(row)-1] != "p99 ok" {
				t.Fatalf("%s: fleet sizing misses its latency target: %s", row[0], row[len(row)-1])
			}
		}
	}
	if uniform != 3 {
		t.Fatalf("study has %d uniform rows, want 3", uniform)
	}
	if !rejected {
		t.Fatal("study has no overload row")
	}
}

// TestLocalSGDStudyDeterministic: the local-SGD exhibit rides in the
// docs-drift-checked analytic subset — two generations must render
// bit-identically, every closed-form cross-check must be exact, the
// communication ratio must fall monotonically along the spectrum, and the
// synchronous baseline's drift column must be exactly zero.
func TestLocalSGDStudyDeterministic(t *testing.T) {
	a, err := LocalSGDStudy()
	if err != nil {
		t.Fatal(err)
	}
	b, err := LocalSGDStudy()
	if err != nil {
		t.Fatal(err)
	}
	if a.Markdown() != b.Markdown() {
		t.Fatal("LocalSGDStudy does not regenerate bit-identically")
	}
	if len(a.Rows) != 6 {
		t.Fatalf("study has %d rows, want sync + 3 local + hier + async", len(a.Rows))
	}
	for _, row := range a.Rows[:5] {
		if row[3] != "exact" {
			t.Fatalf("%s: measured counters drifted from the closed form: %s", row[0], row[3])
		}
	}
	if a.Rows[0][7] != "0.0000" {
		t.Fatalf("the synchronous baseline drifted from itself: %s", a.Rows[0][7])
	}
	prev := 2.0
	for _, row := range a.Rows[:4] { // sync then H=2,4,8: ratio strictly falls
		var ratio float64
		if _, err := fmt.Sscanf(row[2], "%f", &ratio); err != nil {
			t.Fatal(err)
		}
		if ratio >= prev {
			t.Fatalf("%s: comm ratio %v did not fall below %v", row[0], ratio, prev)
		}
		prev = ratio
	}
}
