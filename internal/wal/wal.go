// Package wal is the log manager: it owns the volatile/stable split of
// the log, the force (flush) operation, checkpoint records, and the
// write-ahead-log rule. The paper's Section 7 notes that "the write-ahead
// log protocol requires an operation's log record be forced to disk
// before the operation's effects are written to disk"; RequireStable is
// that gate, and the cache manager calls it before every page install.
package wal

import (
	"fmt"
	"strconv"

	"redotheory/internal/core"
	"redotheory/internal/fault"
	"redotheory/internal/model"
	"redotheory/internal/obs"
)

// CorruptRecordError reports a stable log record whose contents no
// longer match the checksum sealed at append time (log bit-rot, or the
// unreadable half of a mid-record tear).
type CorruptRecordError struct {
	LSN core.LSN
}

func (e *CorruptRecordError) Error() string {
	return fmt.Sprintf("wal: log record %d is corrupt (checksum mismatch)", e.LSN)
}

// Checkpoint is a checkpoint record: its own position in the log plus a
// method-specific payload (a redo scan start, a staging-area pointer, a
// dirty page table…).
type Checkpoint struct {
	// AtLSN is the LSN the record was appended at (one past the last
	// operation record it covers).
	AtLSN core.LSN
	// Payload carries method-specific analysis input.
	Payload interface{}
}

// Manager is the log manager.
type Manager struct {
	log       *core.Log
	stableLSN core.LSN // records with LSN ≤ stableLSN survive a crash
	// checkpoints in append order; each is stable iff AtLSN ≤ stableLSN+1
	// and it was flushed (checkpoint records are forced on append).
	checkpoints []Checkpoint
	// bytes tracks the simulated wire size of appended records, for the
	// log-volume experiments (E10).
	bytesTotal  int
	bytesStable int
	// Forces counts Flush calls that did work, a WAL-overhead metric.
	Forces int
	// rec is the attached telemetry recorder (nil = disabled): appended
	// records and effective forces are counted, forces emit events.
	rec *obs.Recorder

	// Integrity metadata (the media-fault detection surface):

	// sums holds each record's checksum, sealed at append time; a record
	// whose recomputed checksum disagrees has rotted on the medium.
	sums map[core.LSN]uint64
	// chain holds the running chained checksum through each LSN
	// (chain[n] folds record n's checksum into chain[n-1]), so a valid
	// tail can prove where it ends.
	chain map[core.LSN]uint64
	// The tail anchor, re-sealed on every force: the chained checksum of
	// the stable prefix plus the LSN it covers. After a crash the anchor
	// is how recovery knows the stable tail's true end — records present
	// but past a corrupt one are untrustworthy, and records missing below
	// anchorLSN were torn away.
	anchorLSN core.LSN
	anchorSum uint64
	// truncatedBefore is the lowest LSN the log is expected to still
	// hold (records below it were legitimately dropped by checkpointed
	// truncation, not by a fault).
	truncatedBefore core.LSN
}

// NewManager returns an empty log manager.
func NewManager() *Manager {
	return &Manager{
		log:             core.NewLog(),
		sums:            make(map[core.LSN]uint64),
		chain:           make(map[core.LSN]uint64),
		truncatedBefore: 1,
	}
}

// SetRecorder attaches a telemetry recorder. Pass nil to disable.
func (m *Manager) SetRecorder(rec *obs.Recorder) { m.rec = rec }

// recordSum is the per-record integrity checksum: LSN plus the logged
// operation's identity.
func recordSum(r *core.Record) uint64 {
	return fault.Sum("record", strconv.FormatUint(uint64(r.LSN), 10), r.Op.String())
}

// chainAt returns the chained checksum through lsn: the stored chain
// entry, or the empty-log base when lsn predates every record.
func (m *Manager) chainAt(lsn core.LSN) uint64 {
	if s, ok := m.chain[lsn]; ok {
		return s
	}
	return fault.Sum("chain-base")
}

// sealAnchor re-seals the tail anchor at the current stable LSN. Called
// on every force, modelling the anchor riding in the same durable write
// (a control-file update or the force's final sector).
func (m *Manager) sealAnchor() {
	m.anchorLSN = m.stableLSN
	m.anchorSum = m.chainAt(m.stableLSN)
}

// Append logs an operation with a simulated record size in bytes and
// returns its record. The record is volatile until flushed.
func (m *Manager) Append(op *model.Op, size int) *core.Record {
	r := m.log.Append(op)
	if size < 0 {
		size = 0
	}
	m.bytesTotal += size
	r.SetSizeBytes(size)
	sum := recordSum(r)
	m.sums[r.LSN] = sum
	m.chain[r.LSN] = fault.Sum(
		strconv.FormatUint(m.chainAt(r.LSN-1), 16),
		strconv.FormatUint(sum, 16))
	m.rec.Inc(obs.MWALAppends)
	m.rec.Add(obs.MWALBytes, int64(size))
	return r
}

// AppendCheckpoint appends and forces a checkpoint record with the given
// payload. Forcing matches practice: a checkpoint is useless until it is
// stable, and writing it is the atomic act that installs operations in
// the logical and physical schemes (Sections 6.1–6.2).
func (m *Manager) AppendCheckpoint(payload interface{}) Checkpoint {
	ck := Checkpoint{AtLSN: m.log.NextLSN(), Payload: payload}
	m.checkpoints = append(m.checkpoints, ck)
	m.Flush()
	return ck
}

// Flush forces the whole log to stable storage.
func (m *Manager) Flush() {
	if m.stableLSN+1 < m.log.NextLSN() {
		m.Forces++
		m.rec.Inc(obs.MWALForces)
		m.rec.Emit(obs.Event{Type: obs.EvWALForce, LSN: int64(m.log.NextLSN() - 1)})
	}
	m.stableLSN = m.log.NextLSN() - 1
	m.bytesStable = m.bytesTotal
	m.sealAnchor()
}

// FlushTo forces the log through the given LSN (no-op if already stable).
func (m *Manager) FlushTo(lsn core.LSN) {
	if lsn <= m.stableLSN {
		return
	}
	if lsn >= m.log.NextLSN() {
		lsn = m.log.NextLSN() - 1
	}
	m.stableLSN = lsn
	m.Forces++
	m.rec.Inc(obs.MWALForces)
	m.rec.Emit(obs.Event{Type: obs.EvWALForce, LSN: int64(lsn)})
	// Approximate stable bytes: proportional accounting is unnecessary;
	// experiments flush whole-log before measuring.
	m.bytesStable = m.bytesTotal
	m.sealAnchor()
}

// RequireStable is the WAL gate: it returns an error if the record with
// the given LSN has not been forced. Cache managers call it before
// installing a page whose last update is that LSN; the failure-injection
// mode of the simulator skips the call to demonstrate WAL violations.
func (m *Manager) RequireStable(lsn core.LSN) error {
	if lsn > m.stableLSN {
		return fmt.Errorf("wal: record %d is not stable (stable through %d); flush the log before installing", lsn, m.stableLSN)
	}
	return nil
}

// StableLSN returns the highest stable LSN.
func (m *Manager) StableLSN() core.LSN { return m.stableLSN }

// NextLSN returns the LSN the next appended record will get.
func (m *Manager) NextLSN() core.LSN { return m.log.NextLSN() }

// Log returns the full volatile log (the in-memory view).
func (m *Manager) Log() *core.Log { return m.log }

// StableLog returns the records that survive a crash: the stable prefix.
func (m *Manager) StableLog() *core.Log { return m.log.Prefix(m.stableLSN) }

// StableCheckpoint returns the most recent checkpoint whose record is
// stable, if any.
func (m *Manager) StableCheckpoint() (Checkpoint, bool) {
	for i := len(m.checkpoints) - 1; i >= 0; i-- {
		if m.checkpoints[i].AtLSN <= m.stableLSN+1 {
			return m.checkpoints[i], true
		}
	}
	return Checkpoint{}, false
}

// BytesTotal returns the simulated size of all appended records.
func (m *Manager) BytesTotal() int { return m.bytesTotal }

// TruncateBefore drops stable records with LSN < before and returns how
// many were dropped. Only records already stable and covered by a stable
// checkpoint may be truncated; the caller rebases its recovery state
// first. Truncating into the volatile tail or past the newest stable
// checkpoint is refused.
func (m *Manager) TruncateBefore(before core.LSN) (int, error) {
	if before > m.stableLSN+1 {
		return 0, fmt.Errorf("wal: cannot truncate through %d: stable only through %d", before, m.stableLSN)
	}
	ck, ok := m.StableCheckpoint()
	if !ok {
		return 0, fmt.Errorf("wal: cannot truncate without a stable checkpoint")
	}
	if before > ck.AtLSN {
		return 0, fmt.Errorf("wal: cannot truncate through %d: newest stable checkpoint is at %d", before, ck.AtLSN)
	}
	if before > m.truncatedBefore {
		m.truncatedBefore = before
	}
	return m.log.TruncateBefore(before), nil
}

// Crash discards the volatile tail, leaving only the stable prefix, and
// returns the surviving log. Checkpoint records past the stable LSN are
// discarded with it.
func (m *Manager) Crash() *core.Log {
	stable := m.StableLog()
	m.log = stable
	m.bytesTotal = m.bytesStable
	kept := m.checkpoints[:0]
	for _, ck := range m.checkpoints {
		if ck.AtLSN <= m.stableLSN+1 {
			kept = append(kept, ck)
		}
	}
	m.checkpoints = kept
	// The volatile tail's LSNs will be reissued; drop their integrity
	// entries so reissued records seal fresh checksums.
	for lsn := range m.sums {
		if lsn > m.stableLSN {
			delete(m.sums, lsn)
			delete(m.chain, lsn)
		}
	}
	return stable
}
