package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"imc2/internal/imcerr"
	"imc2/internal/obs"
	"imc2/internal/tracing"
)

// FileStore is the event-sourced persistence backend: an append-only
// WAL of campaign events in segment files plus periodic compacted
// snapshots, all under one data directory. Open replays the directory
// into a State; Append makes new events durable. All methods are safe
// for concurrent use. FileStore satisfies Store.
type FileStore struct {
	dir           string
	fsync         FsyncPolicy
	snapshotEvery int

	mu      sync.Mutex
	f       *os.File // live WAL segment, opened for append
	lastSeq uint64
	state   *State
	closed  bool
	// failed latches the first WAL write failure: once a record may be
	// half-written, further appends would put a hole in the log, so the
	// store refuses them with the original cause.
	failed error

	lastSnapshotSeq uint64
	walBytes        int64 // bytes in the live segment

	appended           uint64
	recoveredEvents    uint64
	recoveredCampaigns int
	recoveredAt        time.Time
	snapshotsWritten   uint64
	snapshotErr        error

	// m holds the obs instruments; all nil on an uninstrumented store,
	// whose phases then read no clock (see tracing.Phase).
	m storeMetrics
}

// storeMetrics holds the store's instruments. The zero value (all nil)
// is the uninstrumented store: every method call below no-ops.
type storeMetrics struct {
	appends      *obs.Counter
	appendDur    *obs.Histogram
	fsyncs       *obs.Counter
	fsyncDur     *obs.Histogram
	snapshots    *obs.Counter
	snapshotDur  *obs.Histogram
	writtenBytes *obs.Counter
	replayed     *obs.Counter
}

func newStoreMetrics(r *obs.Registry, s *FileStore) (m storeMetrics) {
	if r == nil {
		return m
	}
	m.appends = r.Counter("imc2_store_appends_total",
		"Events made durable in the WAL.")
	m.appendDur = r.Histogram("imc2_store_append_seconds",
		"Append latency, the store.append span's interval: lock wait, apply, encode, write, fsync policy, and any snapshot the append triggers.",
		obs.LatencyBuckets)
	m.fsyncs = r.Counter("imc2_store_fsyncs_total",
		"fsync calls on WAL segments.")
	m.fsyncDur = r.Histogram("imc2_store_fsync_seconds",
		"WAL fsync latency.", obs.LatencyBuckets)
	m.snapshots = r.Counter("imc2_store_snapshots_total",
		"Snapshots folded (including WAL rotation and compaction).")
	m.snapshotDur = r.Histogram("imc2_store_snapshot_seconds",
		"Snapshot fold latency.", obs.LatencyBuckets)
	m.writtenBytes = r.Counter("imc2_store_written_bytes_total",
		"Bytes of WAL records written.")
	m.replayed = r.Counter("imc2_store_replayed_events_total",
		"WAL events replayed during recovery.")
	r.GaugeFunc("imc2_store_wal_tail_bytes",
		"Bytes in the live WAL segment (resets on rotation).",
		func() float64 { return float64(s.Stats().WALBytes) })
	return m
}

// Open creates or recovers a file store in opts.Dir: it loads the
// newest valid snapshot, replays the WAL events after it (verifying
// checksums and sequence continuity), truncates a torn tail left by a
// crash, and opens the live segment for append. The recovered State is
// available via State until the first Append.
func Open(opts Options) (*FileStore, error) {
	if opts.Dir == "" {
		return nil, imcerr.New(imcerr.CodeInvalid, "store: Options.Dir must be set")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	snapshotEvery := opts.SnapshotEvery
	switch {
	case snapshotEvery == 0:
		snapshotEvery = defaultSnapshotEvery
	case snapshotEvery < 0:
		snapshotEvery = 0 // disabled
	}
	s := &FileStore{
		dir:           opts.Dir,
		fsync:         opts.Fsync,
		snapshotEvery: snapshotEvery,
	}
	s.m = newStoreMetrics(opts.Obs, s)
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover rebuilds the state from disk and leaves the live segment open
// for append.
func (s *FileStore) recover() error {
	st, snapSeq, err := loadLatestSnapshot(s.dir)
	if err != nil {
		return fmt.Errorf("store: loading snapshot: %w", err)
	}
	s.state = st
	s.lastSeq = snapSeq
	s.lastSnapshotSeq = snapSeq
	hadState := snapSeq > 0 || st.Len() > 0

	segs, err := s.segmentNames()
	if err != nil {
		return fmt.Errorf("store: listing WAL segments: %w", err)
	}
	for i, name := range segs {
		path := filepath.Join(s.dir, name)
		validBytes, clean, err := scanSegment(path, func(payload []byte) error {
			var ev Event
			if err := json.Unmarshal(payload, &ev); err != nil {
				return fmt.Errorf("%w: undecodable event: %v", ErrCorrupt, err)
			}
			switch {
			case ev.Seq <= s.lastSeq:
				// Already folded into the snapshot (a segment can
				// straddle the snapshot boundary when a crash landed
				// between snapshot publication and WAL rotation).
				return nil
			case ev.Seq != s.lastSeq+1:
				return fmt.Errorf("%w: sequence gap (have %d, next record is %d)", ErrCorrupt, s.lastSeq, ev.Seq)
			}
			if err := s.state.Apply(ev); err != nil {
				return fmt.Errorf("store: replaying event %d: %w", ev.Seq, err)
			}
			s.lastSeq = ev.Seq
			s.recoveredEvents++
			s.m.replayed.Inc()
			return nil
		})
		if err != nil {
			return fmt.Errorf("store: replaying %s: %w", name, err)
		}
		if !clean {
			if i != len(segs)-1 {
				// Damage in the middle of the log, with later segments
				// present: that is not a crash artifact (crashes tear
				// only the live tail) and silently dropping the later
				// segments would lose acknowledged events. Refuse.
				return fmt.Errorf("store: %s is corrupt mid-log (later segments exist); refusing to open", name)
			}
			// A torn tail on the live segment is the write the crash
			// interrupted; drop it and append over the valid prefix.
			if err := os.Truncate(path, validBytes); err != nil {
				return fmt.Errorf("store: truncating torn tail of %s: %w", name, err)
			}
		}
		hadState = hadState || validBytes > 0
	}

	// Open the live segment: the newest one, or a fresh first segment.
	liveName := walName(s.lastSeq + 1)
	if len(segs) > 0 {
		liveName = segs[len(segs)-1]
	}
	livePath := filepath.Join(s.dir, liveName)
	f, err := os.OpenFile(livePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening live segment: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: sizing live segment: %w", err)
	}
	s.f = f
	s.walBytes = info.Size()
	if hadState {
		s.recoveredAt = time.Now() //lint:allow obsnaming wall-clock recovery timestamp served in Stats, not a phase timing
		s.recoveredCampaigns = s.state.Len()
	}
	return nil
}

// segmentNames lists WAL segment files sorted into replay order.
func (s *FileStore) segmentNames() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseWALName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // fixed-width hex: lexicographic = sequence order
	return names, nil
}

// State returns the durable fold of the log. It is the recovery source
// for registry reconstruction: read it after Open and before the first
// Append — later appends mutate it in place under the store's lock.
func (s *FileStore) State() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// LastSeq returns the sequence number of the newest durable event.
func (s *FileStore) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// RecoveredAt reports when the store was opened over pre-existing
// state; the zero time means the directory was fresh.
func (s *FileStore) RecoveredAt() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recoveredAt
}

// Append makes one event durable: it assigns the next sequence number,
// folds the event into the store's state (rejecting events that do not
// describe a legal transition), writes the checksummed record, and
// applies the fsync policy. A snapshot is folded and the WAL compacted
// every SnapshotEvery appends. Append satisfies Store.
func (s *FileStore) Append(ev Event) error { return s.appendPhase(nil, ev) }

// AppendContext is Append with the caller's trace attached: when ctx
// carries a span, the append — and any fsync or snapshot it triggers —
// records child spans ("store.append", "store.fsync", "store.snapshot")
// in that trace. An untraced context degenerates to Append exactly: a
// nil span is zero-cost, so durability latency is identical either way.
func (s *FileStore) AppendContext(ctx context.Context, ev Event) error {
	return s.appendPhase(tracing.SpanFromContext(ctx), ev)
}

// appendPhase times one append as the "store.append" phase under parent
// (nil: untraced) into imc2_store_append_seconds. Span and histogram
// share one interval: the lock wait, the write and fsync, and any
// snapshot the append triggers.
func (s *FileStore) appendPhase(parent *tracing.Span, ev Event) error {
	ph := tracing.StartPhase(parent, "store.append", s.m.appendDur)
	ph.Span().SetAttr("event", string(ev.Type))
	err := s.append(ph.Span(), ev)
	ph.End(err)
	return err
}

// append is the shared durability path behind Append and AppendContext;
// span may be nil (the untraced append).
func (s *FileStore) append(span *tracing.Span, ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return imcerr.New(imcerr.CodeConflict, "store: appending to a closed store")
	}
	if s.failed != nil {
		return fmt.Errorf("store: store failed earlier, refusing append: %w", s.failed)
	}
	ev.Seq = s.lastSeq + 1
	if err := s.state.Apply(ev); err != nil {
		// The event is not a legal transition; the state was not
		// mutated and nothing reached disk. The store stays healthy.
		return err
	}
	rec, err := appendEvent(make([]byte, recordHeaderSize), ev)
	if err != nil {
		return s.fail(fmt.Errorf("store: encoding event %d: %w", ev.Seq, err))
	}
	if rec, err = frameRecord(rec, 0); err != nil {
		return s.fail(err)
	}
	if _, err := s.f.Write(rec); err != nil {
		return s.fail(fmt.Errorf("store: writing event %d: %w", ev.Seq, err))
	}
	if s.fsync == FsyncAlways || (s.fsync == FsyncSettle && obligationEvent(ev.Type)) {
		if err := s.syncWAL(span); err != nil {
			return s.fail(fmt.Errorf("store: syncing event %d: %w", ev.Seq, err))
		}
	}
	s.lastSeq = ev.Seq
	s.walBytes += int64(len(rec))
	s.appended++
	s.m.appends.Inc()
	s.m.writtenBytes.Add(uint64(len(rec)))

	if s.snapshotEvery > 0 && s.lastSeq-s.lastSnapshotSeq >= uint64(s.snapshotEvery) {
		// Snapshot failures do not fail the append — the event is
		// already durable in the WAL; the snapshot only bounds replay
		// time. The error is surfaced in Stats instead.
		s.snapshotErr = s.snapshotLocked(span)
	}
	return nil
}

// syncWAL fsyncs the live segment as the "store.fsync" phase under
// span (nil: untraced).
func (s *FileStore) syncWAL(span *tracing.Span) error {
	ph := tracing.StartPhase(span, "store.fsync", s.m.fsyncDur)
	err := s.f.Sync()
	ph.End(err)
	s.m.fsyncs.Inc()
	return err
}

// obligationEvent reports whether the event creates or discharges a
// payment obligation — the FsyncSettle sync points.
func obligationEvent(t EventType) bool {
	return t == EventCreated || t == EventSettled || t == EventCancelled
}

// fail latches the store into a failed state and returns err.
func (s *FileStore) fail(err error) error {
	s.failed = err
	return err
}

// snapshotLocked folds the state into a snapshot file, rotates the WAL
// to a fresh segment, and compacts one generation behind: everything
// covered by the PREVIOUS snapshot is deleted, while that snapshot and
// the WAL tail between it and the new one are retained. If the newest
// snapshot file is ever unreadable (media error, bit rot), recovery
// falls back to the retained one and replays its still-present tail —
// skipping a damaged snapshot costs replay time, never data. Called
// with s.mu held; span may be nil (untraced fold).
func (s *FileStore) snapshotLocked(span *tracing.Span) (err error) {
	ph := tracing.StartPhase(span, "store.snapshot", s.m.snapshotDur)
	defer func() { ph.End(err) }()
	if err := writeSnapshot(s.dir, s.lastSeq, s.state); err != nil {
		return err
	}
	s.snapshotsWritten++
	s.m.snapshots.Inc()
	retain := s.lastSnapshotSeq // the generation kept as fallback
	s.lastSnapshotSeq = s.lastSeq

	// Rotate: further appends go to a fresh segment so compaction can
	// reason about whole files.
	if err := s.syncWAL(span); err != nil {
		return fmt.Errorf("store: syncing segment before rotation: %w", err)
	}
	next, err := os.OpenFile(filepath.Join(s.dir, walName(s.lastSeq+1)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: rotating WAL: %w", err)
	}
	old := s.f
	s.f = next
	s.walBytes = 0
	if err := old.Close(); err != nil {
		return fmt.Errorf("store: closing rotated segment: %w", err)
	}

	// Compact the superseded generation: segments whose ENTIRE contents
	// the retained snapshot covers, and snapshots older than it. A
	// segment ends where the next one begins, so segment i is fully
	// covered iff segs[i+1] starts at or before retain+1 — starting-
	// before-retain alone is not enough, because a crash between a
	// snapshot publication and the WAL rotation leaves a live segment
	// straddling the boundary, and deleting it would destroy the
	// retained snapshot's replay tail (the fallback guarantee). The
	// last segment is the freshly rotated live one and is never
	// deletable.
	segs, err := s.segmentNames()
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		next, ok := parseWALName(segs[i+1])
		if ok && next <= retain+1 {
			_ = os.Remove(filepath.Join(s.dir, segs[i]))
		}
	}
	snaps, err := snapshotNames(s.dir)
	if err != nil {
		return err
	}
	for _, name := range snaps {
		if seq, ok := parseSnapName(name); ok && seq < retain {
			_ = os.Remove(filepath.Join(s.dir, name))
		}
	}
	return syncDir(s.dir)
}

// Snapshot folds the current state into a snapshot immediately,
// regardless of the automatic interval, and compacts the WAL behind it.
// A store that latched a WAL failure refuses: its in-memory state holds
// a mutation whose caller was told it is NOT durable (the append
// applied before the write failed), and folding that phantom into a
// snapshot would resurrect it on the next open.
func (s *FileStore) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return imcerr.New(imcerr.CodeConflict, "store: snapshotting a closed store")
	}
	if s.failed != nil {
		return fmt.Errorf("store: store failed earlier, refusing snapshot: %w", s.failed)
	}
	if s.lastSeq == s.lastSnapshotSeq {
		return nil // nothing new to fold
	}
	return s.snapshotLocked(nil)
}

// Close flushes the WAL, folds a final snapshot (so the next open
// replays nothing), and releases the backing files. The graceful-
// shutdown path must call it after in-flight settles drain; a second
// Close is a no-op.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	if s.failed == nil {
		if err := s.syncWAL(nil); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("store: syncing on close: %w", err)
		}
		if s.lastSeq != s.lastSnapshotSeq {
			if err := s.snapshotLocked(nil); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := s.f.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("store: closing segment: %w", err)
	}
	return firstErr
}

// Stats snapshots the store's counters.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Dir:                s.dir,
		Fsync:              s.fsync,
		SnapshotEvery:      s.snapshotEvery,
		LastSeq:            s.lastSeq,
		AppendedEvents:     s.appended,
		RecoveredEvents:    s.recoveredEvents,
		RecoveredCampaigns: s.recoveredCampaigns,
		RecoveredAt:        s.recoveredAt,
		SnapshotsWritten:   s.snapshotsWritten,
		LastSnapshotSeq:    s.lastSnapshotSeq,
		WALBytes:           s.walBytes,
		Campaigns:          s.state.Len(),
	}
	if s.failed != nil {
		st.Failed = s.failed.Error()
	}
	if s.snapshotErr != nil {
		st.SnapshotError = s.snapshotErr.Error()
	}
	return st
}
