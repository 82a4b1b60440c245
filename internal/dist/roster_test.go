package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// model is the reference membership machine over plain lists: who is live,
// each worker's strikes, which joins have fired, and a pinned shard count
// (0: the split tracks the live world). It spells out the Elastic rules
// directly, without the roster's admission cursor or cached node seats.
type model struct {
	live, strikes   []int
	joined          map[int]bool
	pinned, perNode int
}

func (m *model) active(f *FaultPlan, step int64) []int {
	return slices.DeleteFunc(slices.Clone(m.live), func(w int) bool { return f.deadAt(step, w) })
}

func (m *model) shards() int {
	if m.pinned > 0 {
		return m.pinned
	}
	return len(m.live)
}

func (m *model) owners(list []int) []int {
	out := make([]int, m.shards())
	for s := range out {
		out[s] = list[s%len(list)]
	}
	return out
}

func (m *model) sizes() []int {
	count := make([]int, len(m.strikes)/m.perNode)
	for _, w := range m.live {
		count[w/m.perNode]++
	}
	return slices.DeleteFunc(count, func(n int) bool { return n == 0 })
}

// admit, strike and evict are the reference transitions.
func (m *model) admit(f *FaultPlan, step int64) (events []MembershipEvent, gained int64) {
	for w := range m.strikes {
		if s, ok := f.Join[w]; ok && s <= step && !m.joined[w] {
			m.joined[w] = true
			if !slices.Contains(m.live, w) {
				m.live = append(m.live, w)
				slices.Sort(m.live)
			}
			events = append(events, MembershipEvent{Step: step, Worker: w, Join: true, World: len(m.live)})
		}
	}
	for _, o := range m.owners(m.active(f, step)) {
		for _, ev := range events {
			if ev.Worker == o {
				gained++
			}
		}
	}
	return events, gained
}

func (m *model) strike(f *FaultPlan, step int64) {
	for _, w := range m.live {
		if f.deadAt(step, w) {
			m.strikes[w]++
		} else {
			m.strikes[w] = 0
		}
	}
}

func (m *model) evict(after int, step int64) (events []MembershipEvent, moved int64) {
	before := m.owners(m.live)
	for _, w := range slices.Clone(m.live) {
		if w == 0 || m.strikes[w] < after {
			continue
		}
		m.live = slices.DeleteFunc(m.live, func(v int) bool { return v == w })
		events = append(events, MembershipEvent{Step: step, Worker: w, World: len(m.live)})
		for _, o := range before {
			if o == w {
				moved++
			}
		}
	}
	return events, moved
}

// scenario is one membership run: a fleet, a plan, and the boundary pattern
// of the entry point that drives it (SyncEvery 1 is the every-step modes).
type scenario struct {
	h             Hierarchy
	shards, after int // shards 0: the world-tracking split
	syncEvery     int
	start, steps  int64
	plan          FaultPlan
}

func (sc scenario) String() string {
	return fmt.Sprintf("%v shards=%d after=%d H=%d start=%d dead=%v join=%v",
		sc.h, sc.shards, sc.after, sc.syncEvery, sc.start, sc.plan.Dead, sc.plan.Join)
}

// runScenario drives the roster and the model through every boundary of the
// scenario and reports the first disagreement, or how many events it filed.
func runScenario(sc scenario) (events int, err error) {
	workers := sc.h.Workers()
	f := &sc.plan
	shards := sc.shards
	if shards == 0 {
		shards = workers
	}
	r := newRoster(workers, sc.h, shards, sc.shards == 0, f, sc.start)
	m := &model{strikes: make([]int, workers), joined: map[int]bool{}, pinned: sc.shards, perNode: sc.h.PerNode}
	for w := range workers {
		j, joins := f.Join[w]
		d, died := f.Dead[w]
		m.joined[w] = joins && j < sc.start
		if !joins || j < sc.start || died && d < j {
			m.live = append(m.live, w)
		}
	}
	after := (&Elastic{EvictAfter: sc.after}).evictAfter()
	compare := func(at string, step int64, gotEv, wantEv []MembershipEvent, got, want int64) error {
		type view struct {
			Live, Active, Owners, Sizes, Strikes []int
			Shards                               int
			Events                               []MembershipEvent
			Count                                int64
		}
		g := view{r.live, r.members(f, step), owners(r.members(f, step), r.shards), r.sizes, r.strikes, r.shards, gotEv, got}
		w := view{m.live, m.active(f, step), m.owners(m.active(f, step)), m.sizes(), m.strikes, m.shards(), wantEv, want}
		events += len(gotEv)
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("%v: %s at step %d:\n roster %+v\n model  %+v", sc, at, step, g, w)
		}
		return nil
	}
	if err := compare("construction", sc.start, nil, nil, 0, 0); err != nil {
		return 0, err
	}
	h := int64(sc.syncEvery)
	for step := sc.start; step < sc.start+sc.steps; step++ {
		if step%h == 0 {
			var gotEv, wantEv []MembershipEvent
			var got, want int64
			r, gotEv, got = r.admit(f, step)
			wantEv, want = m.admit(f, step)
			if err := compare("admit", step, gotEv, wantEv, got, want); err != nil {
				return 0, err
			}
		}
		if (step+1)%h != 0 {
			continue
		}
		r = r.strike(f, step)
		m.strike(f, step)
		if err := compare("strike", step, nil, nil, 0, 0); err != nil {
			return 0, err
		}
		var gotEv, wantEv []MembershipEvent
		var got, want int64
		r, gotEv, got = r.evict(after, step+1)
		wantEv, want = m.evict(after, step+1)
		if err := compare("evict", step+1, gotEv, wantEv, got, want); err != nil {
			return 0, err
		}
	}
	return events, nil
}

// randomScenario draws a scenario whose plan Config.Validate accepts.
func randomScenario(rng *rand.Rand) scenario {
	layouts := []Hierarchy{NewHierarchy(2, 2), NewHierarchy(2, 3)}
	for {
		sc := scenario{
			h:         Flat(Ring, 2+rng.Intn(5)),
			after:     1 + rng.Intn(3),
			syncEvery: []int{1, 1, 2, 4}[rng.Intn(4)],
			start:     []int64{0, 0, 0, 1, 2, 4}[rng.Intn(6)],
			steps:     int64(8 + rng.Intn(12)),
		}
		if rng.Intn(3) == 0 {
			sc.h = layouts[rng.Intn(len(layouts))]
		}
		workers := sc.h.Workers()
		if rng.Intn(2) == 0 {
			sc.shards = workers + rng.Intn(4)
		}
		sc.plan = FaultPlan{Dead: map[int]int64{}, Join: map[int]int64{}}
		for w := 1; w < workers; w++ {
			if rng.Intn(2) == 0 {
				sc.plan.Dead[w] = rng.Int63n(sc.steps)
			}
			if rng.Intn(2) == 0 {
				sc.plan.Join[w] = 1 + rng.Int63n(sc.steps)
			}
		}
		cfg := Config{Topology: &sc.h, Shards: sc.shards, Faults: &sc.plan, Elastic: &Elastic{EvictAfter: sc.after}}
		if cfg.Validate(workers) == nil {
			return sc
		}
	}
}

// TestRosterMatchesReferenceModel holds the roster's admit, strike and evict
// transitions to the list-based model over random fleets, layouts,
// thresholds, shard splits, boundary patterns and Dead/Join plans (returns
// and fresh joiners alike): after every transition the live and active
// lists, the shard count, the owners, the live node sizes, the strikes, the
// events and the rebalanced or joined shard count agree. No network and no
// goroutine runs.
func TestRosterMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const runs = 3000
	events := 0
	for range runs {
		n, err := runScenario(randomScenario(rng))
		if err != nil {
			t.Fatal(err)
		}
		events += n
	}
	if events < runs {
		t.Fatalf("%d scenarios filed only %d membership events", runs, events)
	}
}

// FuzzMembership feeds -fault-dead and -fault-join flag strings, a worker
// count, EvictAfter and a synchronization period through ParseWorkerSteps
// and Config.Validate into the roster-versus-model comparison.
func FuzzMembership(f *testing.F) {
	f.Add("2@1", "2@4", uint8(4), uint8(1), uint8(1))
	f.Add("1@0,2@0", "", uint8(4), uint8(1), uint8(1))
	f.Add("", "3@3", uint8(4), uint8(2), uint8(2))
	f.Add("3@2", "3@5,1@3", uint8(6), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, dead, join string, workers, evictAfter, syncEvery uint8) {
		d, derr := ParseWorkerSteps(dead)
		j, jerr := ParseWorkerSteps(join)
		if derr != nil || jerr != nil {
			return
		}
		sc := scenario{
			h:         Flat(Ring, 1+int(workers)%8),
			after:     int(evictAfter) % 5,
			syncEvery: 1 + int(syncEvery)%4,
			plan:      FaultPlan{Dead: d, Join: j},
		}
		cfg := Config{Faults: &sc.plan, Elastic: &Elastic{EvictAfter: sc.after}}
		if cfg.Validate(sc.h.Workers()) != nil {
			return
		}
		for _, s := range d {
			sc.steps = max(sc.steps, s)
		}
		for _, s := range j {
			sc.steps = max(sc.steps, s)
		}
		sc.steps = min(sc.steps+4, 64)
		if _, err := runScenario(sc); err != nil {
			t.Fatal(err)
		}
	})
}
