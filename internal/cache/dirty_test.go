package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"redotheory/internal/core"
	"redotheory/internal/model"
	"redotheory/internal/storage"
	"redotheory/internal/wal"
)

// refDirty is the brute-force dirty-page table: scan every cached page,
// keep the dirty ones, sort.
func refDirty(m *Manager) []model.Var {
	var out []model.Var
	for id, p := range m.pages {
		if p.dirty {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refMinRecLSN is MinRecLSN by a scan of every cached page.
func refMinRecLSN(m *Manager) (core.LSN, bool) {
	var min core.LSN
	found := false
	for _, p := range m.pages {
		if p.dirty && (!found || p.recLSN < min) {
			min, found = p.recLSN, true
		}
	}
	return min, found
}

// refFirst is the background writer's choice by a scan of the
// brute-force table: the lowest dirty id the predicate admits.
func refFirst(m *Manager, can func(model.Var) bool) (model.Var, bool) {
	for _, id := range refDirty(m) {
		if can(id) {
			return id, true
		}
	}
	return "", false
}

// refDrain is FlushAll/FlushAllBest as rounds over a fresh sorted
// snapshot of the brute-force table.
func refDrain(m *Manager, can func(model.Var) bool, flush func(model.Var) error) error {
	for {
		progressed := false
		for _, id := range refDirty(m) {
			if can(id) {
				if err := flush(id); err != nil {
					return err
				}
				progressed = true
			}
		}
		if len(refDirty(m)) == 0 {
			return nil
		}
		if !progressed {
			return fmt.Errorf("stuck")
		}
	}
}

type install struct {
	id  model.Var
	lsn core.LSN
}

// twin is a cache under test plus the install sequence it produced.
type twin struct {
	m        *Manager
	installs []install
}

func newTwin(mv bool, lg *wal.Manager) *twin {
	var m *Manager
	if mv {
		m = NewMVManager(storage.NewStore(), lg)
	} else {
		m = NewManager(storage.NewStore(), lg)
	}
	t := &twin{m: m}
	m.OnInstall = func(id model.Var, lsn core.LSN) { t.installs = append(t.installs, install{id, lsn}) }
	return t
}

// TestDirtyTableMatchesBruteForce runs random sequences of writes,
// dependencies, flushes, group flushes, version flushes, drains and
// crashes on the single- and multi-version caches. After every step the
// incrementally kept table must agree with a scan of every page:
// DirtyPages, DirtyCount, MinRecLSN and the first-eligible flush choice.
// Drains run on a twin cache through the reference snapshot algorithm,
// and both twins must install the same pages in the same order.
func TestDirtyTableMatchesBruteForce(t *testing.T) {
	pages := []model.Var{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, mv := range []bool{false, true} {
		for seed := int64(1); seed <= 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// The twins share one log: a flush forces it the same way
			// from either side.
			lg := wal.NewManager()
			got, ref := newTwin(mv, lg), newTwin(mv, lg)
			both := func(f func(m *Manager) error) (error, error) { return f(got.m), f(ref.m) }
			opID := model.OpID(0)
			for step := 0; step < 80; step++ {
				page := pages[rng.Intn(len(pages))]
				var what string
				var errGot, errRef error
				switch k := rng.Intn(20); {
				case k < 8:
					opID++
					val := model.Value(fmt.Sprint(opID))
					lsn := lg.Append(model.AssignConst(opID, page, val), 1).LSN
					what = fmt.Sprintf("ApplyWrite(%s, %d)", page, lsn)
					both(func(m *Manager) error { m.ApplyWrite(page, val, lsn); return nil })
				case k < 10:
					next := lg.Log().NextLSN()
					d := Dep{
						Prereq: pages[rng.Intn(len(pages))], PrereqLSN: core.LSN(rng.Int63n(int64(next) + 1)),
						Dependent: page, DepLSN: core.LSN(rng.Int63n(int64(next) + 1)),
					}
					what = fmt.Sprintf("AddDep(%+v)", d)
					both(func(m *Manager) error { m.AddDep(d); return nil })
				case k < 13:
					what = fmt.Sprintf("Flush(%s)", page)
					errGot, errRef = both(func(m *Manager) error { return m.Flush(page) })
				case k < 15:
					group := slices.Clone(pages)
					rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
					group = group[:1+rng.Intn(3)]
					what = fmt.Sprintf("FlushGroup(%v)", group)
					errGot, errRef = both(func(m *Manager) error { return m.FlushGroup(group) })
				case k < 17:
					what = fmt.Sprintf("FlushBest(%s)", page)
					errGot, errRef = both(func(m *Manager) error { return m.FlushBest(page) })
				case k < 18:
					what = "FlushAll"
					errGot = got.m.FlushAll()
					errRef = refDrain(ref.m, ref.m.CanFlush, ref.m.Flush)
				case k < 19:
					what = "FlushAllBest"
					errGot = got.m.FlushAllBest()
					errRef = refDrain(ref.m, ref.m.CanFlushBest, ref.m.FlushBest)
				default:
					what = "Crash"
					both(func(m *Manager) error { m.Crash(); return nil })
				}
				at := fmt.Sprintf("mv=%v seed=%d step=%d %s", mv, seed, step, what)
				if (errGot == nil) != (errRef == nil) {
					t.Fatalf("%s: error %v, reference error %v", at, errGot, errRef)
				}
				if !slices.Equal(got.installs, ref.installs) {
					t.Fatalf("%s: installs %v, reference %v", at, got.installs, ref.installs)
				}
				checkDirtyTable(t, at, got.m)
			}
		}
	}
}

func checkDirtyTable(t *testing.T, at string, m *Manager) {
	t.Helper()
	want := refDirty(m)
	if got := m.DirtyPages(); !slices.Equal(got, want) {
		t.Fatalf("%s: DirtyPages = %v, want %v", at, got, want)
	}
	if got := m.DirtyCount(); got != len(want) {
		t.Fatalf("%s: DirtyCount = %d, want %d", at, got, len(want))
	}
	var walked []model.Var
	m.EachDirty(func(id model.Var) bool { walked = append(walked, id); return true })
	if !slices.Equal(walked, want) {
		t.Fatalf("%s: EachDirty walked %v, want %v", at, walked, want)
	}
	gotMin, gotOK := m.MinRecLSN()
	wantMin, wantOK := refMinRecLSN(m)
	if gotMin != wantMin || gotOK != wantOK {
		t.Fatalf("%s: MinRecLSN = %d,%v, want %d,%v", at, gotMin, gotOK, wantMin, wantOK)
	}
	gotID, gotOK := m.FirstFlushable()
	wantID, wantOK := refFirst(m, m.CanFlush)
	if gotID != wantID || gotOK != wantOK {
		t.Fatalf("%s: FirstFlushable = %q,%v, want %q,%v", at, gotID, gotOK, wantID, wantOK)
	}
	gotID, gotOK = m.FirstFlushableBest()
	wantID, wantOK = refFirst(m, m.CanFlushBest)
	if gotID != wantID || gotOK != wantOK {
		t.Fatalf("%s: FirstFlushableBest = %q,%v, want %q,%v", at, gotID, gotOK, wantID, wantOK)
	}
}

// TestDirtyPagesIsACopy: callers may keep or modify the returned slice
// without disturbing the table.
func TestDirtyPagesIsACopy(t *testing.T) {
	c, _, lg := newCache()
	for i, p := range []model.Var{"b", "a"} {
		lg.Append(model.AssignConst(model.OpID(i+1), p, "v"), 1)
		c.ApplyWrite(p, "v", core.LSN(i+1))
	}
	out := c.DirtyPages()
	out[0] = "zzz"
	if got := c.DirtyPages(); !slices.Equal(got, []model.Var{"a", "b"}) {
		t.Errorf("DirtyPages after caller write = %v, want [a b]", got)
	}
}
