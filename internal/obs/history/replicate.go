package history

import (
	"encoding/json"
	"fmt"

	"shareinsights/internal/store"
)

// Replication hooks (docs/REPLICATION.md): a follower rebuilds a
// memory-only Recorder from the leader's shipped snapshot + WAL frames.
// The frames are the same records Open replays locally, and both go
// through applyRecordLocked — one recovery path, fed over the wire.

// loadSnapshotLocked replaces the recorder's state with a snapshot
// payload. A nil payload resets to empty (a leader that never
// compacted ships frames from genesis).
func (r *Recorder) loadSnapshotLocked(payload []byte) error {
	r.seq = 0
	r.runs = map[string][]*RunRecord{}
	r.profiles = map[profKey]*StageProfile{}
	if len(payload) == 0 {
		return nil
	}
	var snap snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return fmt.Errorf("history: decode snapshot: %w", err)
	}
	r.seq = snap.Seq
	for _, run := range snap.Runs {
		r.runs[run.Dashboard] = append(r.runs[run.Dashboard], run)
	}
	for _, p := range snap.Profiles {
		r.profiles[profKey{p.FlowHash, p.Output, p.Stage}] = p
	}
	return nil
}

// ApplySnapshot replaces the recorder's state with a leader snapshot
// payload (nil = reset to empty) — the bootstrap half of replication.
func (r *Recorder) ApplySnapshot(payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.loadSnapshotLocked(payload)
}

// ApplyRecord folds one shipped WAL record into the rings and profiles,
// preserving the leader-assigned sequence number.
func (r *Recorder) ApplyRecord(rec store.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applyRecordLocked(rec)
}

// applyRecordLocked decodes and installs one WAL record — the replay
// step shared by Open and ApplyRecord. Unknown record types skip.
func (r *Recorder) applyRecordLocked(rec store.Record) error {
	if rec.Type != recRun {
		return nil
	}
	var run RunRecord
	if err := json.Unmarshal(rec.Payload, &run); err != nil {
		return fmt.Errorf("history: decode run record: %w", err)
	}
	r.applyLocked(&run)
	return nil
}

// ExportSnapshot serializes the full recorder state in the snapshot
// format Open and ApplySnapshot consume — the leader's bootstrap
// payload, and the follower's own compaction payload.
func (r *Recorder) ExportSnapshot() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return json.Marshal(r.snapshotLocked())
}

// Seq reports the newest run sequence number applied — the follower's
// applied-seq health field.
func (r *Recorder) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dir exposes the durable directory for WAL shipping (nil for
// memory-only recorders).
func (r *Recorder) Dir() *store.Dir {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dir
}
