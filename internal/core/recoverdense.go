package core

import (
	"fmt"

	"redotheory/internal/dense"
	"redotheory/internal/graph"
	"redotheory/internal/model"
	"redotheory/internal/obs"
)

// Replay is the replay kernel every dense recovery path shares: it
// recomputes the records at idx (indexes into lv.Views), in the given
// order, against the arena, assembling each record's read set in a
// pooled scratch map and storing its writes with StoreRaw. Sequential
// recovery runs it once over the whole LSN-ordered redo list; the
// parallel engine and the instant-restart engine run it per
// interference component. StoreRaw leaves the presence bitmap alone,
// so concurrent calls over components with disjoint write sets are
// race-free; callers Mark the written ids afterwards if they read the
// bitmap. On failure it returns the failing record's LSN, so
// concurrent failures can resolve to the smallest one.
func Replay(ds *dense.State, lv *LogView, idx []int) (LSN, error) {
	scratch := dense.GetScratch()
	defer dense.PutScratch(scratch)
	reads := scratch.Reads
	for _, i := range idx {
		v := &lv.Views[i]
		op := v.Rec.Op
		clear(reads)
		rvars := op.Reads()
		for k, id := range v.Reads {
			reads[rvars[k]] = ds.Value(id)
		}
		ws, err := op.ComputeFrom(reads)
		if err != nil {
			return v.Rec.LSN, fmt.Errorf("core: replaying %s: %w", op, err)
		}
		wvars := op.Writes()
		for k, id := range v.Writes {
			ds.StoreRaw(id, ws[wvars[k]])
		}
	}
	return 0, nil
}

// RecoverDense is the redo recovery procedure of Figure 6 on the dense
// replay representation: the decision phase (DecideRedo) followed by
// one LSN-ordered pass of the Replay kernel over the admitted records.
// It reaches the same result as Recover because the redo test and
// analysis function are state-blind (see DecideRedo), and deterministic
// operations replayed in the same order against the same read values
// write the same values. The state is only read until the final
// write-back of the arena, so a failed replay leaves it untouched.
func RecoverDense(state *model.State, log *Log, checkpoint graph.Set[model.OpID], redo RedoTest, analyze AnalyzeFunc) (*Result, error) {
	return RecoverDenseObserved(nil, state, log, checkpoint, redo, analyze)
}

// RecoverDenseObserved is RecoverDense with telemetry: a root "recover"
// span holding the decide span (with its analysis spans and verdict
// events) and one replay span. A nil recorder makes it exactly
// RecoverDense.
func RecoverDenseObserved(rec *obs.Recorder, state *model.State, log *Log, checkpoint graph.Set[model.OpID], redo RedoTest, analyze AnalyzeFunc) (*Result, error) {
	span := rec.StartRootSpan(obs.PhaseRecover, "sequential dense recovery")
	defer span.End()
	lv := DefaultViews.ViewOfObserved(log, rec)
	decision := DecideRedoObserved(rec, state, log, checkpoint, redo, analyze)

	rs := rec.StartSpan(obs.PhaseReplay)
	ds := dense.FromState(lv.In, state)
	_, err := Replay(ds, lv, decision.ReplayIdx)
	rs.End()
	if err != nil {
		return nil, err
	}
	rec.Add(obs.MReplayRecords, int64(len(decision.ReplayIdx)))

	// Write the arena back over the interned variables. Those replay did
	// not write still hold their projected values, so setting them again
	// changes nothing.
	for id := range lv.In.Len() {
		state.Set(lv.In.Var(uint32(id)), ds.Value(uint32(id)))
	}
	return decision.Result(state), nil
}
