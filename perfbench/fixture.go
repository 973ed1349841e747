package main

import (
	"fmt"
	"math/rand"

	"redotheory/internal/core"
	"redotheory/internal/method"
	"redotheory/internal/model"
	"redotheory/internal/workload"
)

// shape is one benchmark workload: the history a crashed database
// carries. Every workload runs the same background schedule and the
// same open-loop load (see the constants below).
type shape struct {
	name string
	// gen builds a history of n operations over the pages.
	gen func(n int, pages []model.Var, seed int64) []*model.Op
	// ops is the nominal history length; each crash draws its length
	// from ops ± 2% so record counts depend on the seed.
	ops, pages int
}

const (
	// The background schedule: FlushOne after an operation with
	// probability flushProb, FlushLog every forceEvery operations, a
	// fuzzy Checkpoint every checkpointEvery operations, and a final
	// force at the crash, so every operation is acknowledged. flushProb
	// and forceEvery follow the default schedule of the repository's
	// crash simulator (sim.Config: FlushProb 0.3, ForceProb 0.2).
	// checkpointEvery is an assumption, not measured traffic: at this
	// schedule a fuzzy checkpoint cuts almost nothing from the redo
	// scan (about one record per restart), because some page stays
	// dirty from the start of the history.
	flushProb       = 0.3
	forceEvery      = 5
	checkpointEvery = 1024
	// In the open loop, serveRate requests per second fall due from the
	// crash handoff until the engine has fully recovered plus a tenth of
	// that time; every writeEvery-th request is a post-crash write (as
	// in serve.RunBench). serveRate is half the request workers'
	// capacity during an instant restart, as METRICS.md derives it.
	serveRate  = 2500
	writeEvery = 10
	// Each crash is restarted offlineRepeats times through each offline
	// entry point and serveRestarts times under the open loop: one
	// restart per cycle gives too few samples to steady the medians.
	offlineRepeats = 3
	serveRestarts  = 5
)

// heavy returns a history generator whose ops fold their digest the
// given number of rounds.
func heavy(gen func(int, []model.Var, int, int64) []*model.Op, rounds int) func(int, []model.Var, int64) []*model.Op {
	return func(n int, pages []model.Var, seed int64) []*model.Op { return gen(n, pages, rounds, seed) }
}

var shapes = map[string]shape{
	// The recovery machinery and the forward path's dirty-page scan
	// dominate: digest ops with no compute rounds over ~1k pages.
	"bare-restart": {name: "bare-restart", gen: workload.HotPage, ops: 16384, pages: 1024},
	// Op compute is ~95% of a restart: the bypass workload for machinery
	// changes, with long per-page chains for parallel replay.
	"heavy-restart": {name: "heavy-restart", gen: heavy(workload.HeavySinglePage, 400), ops: 4096, pages: 64},
	// The serve availability fixture: hot pages carry long, costly
	// chains while clients hammer them.
	"instant-restart": {name: "instant-restart", gen: heavy(workload.HeavyHotPage, 2000), ops: 3000, pages: 512},
}

// cycleSeed derives the seed of one crash/restart cycle from the run's
// seed (splitmix64 finalizer), so cycles of one run differ and runs of
// one seed repeat.
func cycleSeed(seed int64, cycle int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(cycle+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// history is one generated crash fixture and its oracle.
type history struct {
	seed    int64
	pages   []model.Var
	initial *model.State
	ops     []*model.Op
	// oracle is the history applied to the initial state: with the log
	// forced at the crash, every recovery must reach it.
	oracle *model.State
}

func newHistory(s shape, seed int64) (*history, error) {
	rng := rand.New(rand.NewSource(seed))
	n := s.ops*49/50 + rng.Intn(s.ops/25+1)
	h := &history{seed: seed, pages: workload.Pages(s.pages)}
	h.initial = workload.InitialState(h.pages)
	h.ops = s.gen(n, h.pages, seed)
	h.oracle = h.initial.Clone()
	for _, op := range h.ops {
		if _, err := h.oracle.Apply(op); err != nil {
			return nil, fmt.Errorf("oracle: applying %s: %w", op, err)
		}
	}
	return h, nil
}

// coldDB is a crashed DB whose StableLog hands recovery a private copy
// of the stable log: the same LSNs, operations, labels and sizes, but
// records the process-wide view cache (core.DefaultViews, keyed by
// record identity) has never seen — as after a real process restart,
// where the log is read back from disk. The copy is made during set-up;
// StableLog still makes the real projection call, so the timed restart
// pays what the log manager's handoff costs.
type coldDB struct {
	method.DB
	log *core.Log
}

func (c *coldDB) StableLog() *core.Log {
	c.DB.StableLog()
	return c.log
}

// copyLog returns a copy of the log with fresh record identities.
func copyLog(l *core.Log) (*core.Log, error) {
	out := core.NewLog()
	for _, r := range l.Records() {
		c := out.Append(r.Op)
		if c.LSN != r.LSN {
			return nil, fmt.Errorf("stable log has a gap: record %d copied as %d", r.LSN, c.LSN)
		}
		c.Labels = r.Labels
		c.SetSizeBytes(r.SizeBytes())
	}
	return out, nil
}

func newColdDB(db method.DB) (*coldDB, error) {
	l, err := copyLog(db.StableLog())
	if err != nil {
		return nil, err
	}
	return &coldDB{DB: db, log: l}, nil
}

// coldCheck asserts that fn builds exactly one new log view: the
// restart it times ran on a log the view cache had not seen.
func coldCheck(fn func()) bool {
	before := core.DefaultViews.Misses
	fn()
	return core.DefaultViews.Misses == before+1
}

// evictViews drops the cached views of finished restarts, so the heap
// a restart starts from does not grow with the number of restarts
// before it. Recovery looks the cache up through core.DefaultViews on
// every call, so a fresh cache takes effect at once.
func evictViews() {
	core.DefaultViews = core.NewViewCache(128) // the capacity core gives it
}
