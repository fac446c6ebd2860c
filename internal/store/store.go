package store

import (
	"context"
	"time"

	"imc2/internal/obs"
)

// Store is what the registry needs from a persistence backend: ordered,
// durable event appends. The registry treats a nil Store as "in-memory
// only" — the zero-configuration default costs nothing on the hot
// submission path.
type Store interface {
	// Append makes one event durable. The store assigns the sequence
	// number; events arrive in the exact order the registry accepted the
	// mutations they describe. An error means the event may not be
	// durable — the registry surfaces it to the caller rather than
	// acknowledging unpersisted work. The registry appends with it where
	// its caller passes no context: campaign creation, open, cancel and
	// submissions.
	Append(ev Event) error
	// AppendContext is Append with the caller's context, so the append
	// (and any fsync or snapshot it triggers) can record spans in the
	// caller's trace. Durability semantics are identical to Append. The
	// registry appends with it on the settle path.
	AppendContext(ctx context.Context, ev Event) error
	// Close flushes buffered records and releases the backing files.
	Close() error
}

// FsyncPolicy selects when the WAL is fsynced.
type FsyncPolicy int

const (
	// FsyncSettle (the default) flushes every append to the OS and
	// fsyncs on the events that create or discharge payment obligations
	// — created, settled, cancelled — and on every snapshot. A process
	// crash loses nothing; an OS crash can lose only trailing
	// submissions whose workers saw no settled campaign.
	FsyncSettle FsyncPolicy = iota
	// FsyncAlways fsyncs every append. Maximum durability, slowest.
	FsyncAlways
	// FsyncNever never fsyncs (the OS flushes on its own schedule).
	// For tests and benchmarks; an OS crash may lose the log tail.
	FsyncNever
)

// String names the policy as it appears in flags and stats.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncSettle:
		return "settle"
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "unknown"
	}
}

// ParseFsyncPolicy resolves a flag value ("settle", "always", "never").
func ParseFsyncPolicy(name string) (FsyncPolicy, bool) {
	switch name {
	case "settle":
		return FsyncSettle, true
	case "always":
		return FsyncAlways, true
	case "never":
		return FsyncNever, true
	}
	return 0, false
}

// Options configures a FileStore.
type Options struct {
	// Dir is the data directory. Created if missing; a store owns its
	// directory exclusively.
	Dir string
	// SnapshotEvery folds a snapshot (and compacts the WAL behind it)
	// after this many appends. 0 means the default of 256; negative
	// disables automatic snapshots (Close still writes a final one).
	SnapshotEvery int
	// Fsync selects the WAL fsync policy (default FsyncSettle).
	Fsync FsyncPolicy
	// Obs, when non-nil, registers the store's metrics (imc2_store_*):
	// append/fsync/snapshot counters and latency histograms, bytes
	// written, WAL tail size, and replay counters. Nil disables
	// instrumentation entirely — no clocks are read on the append path.
	Obs *obs.Registry
}

// defaultSnapshotEvery bounds replay work on restart without making
// snapshot writes dominate the append path.
const defaultSnapshotEvery = 256

// Stats is a point-in-time snapshot of a FileStore, served as the store
// section of GET /v2/stats.
type Stats struct {
	// Dir is the data directory.
	Dir string
	// Fsync is the configured fsync policy.
	Fsync FsyncPolicy
	// SnapshotEvery is the automatic-snapshot interval (0: disabled).
	SnapshotEvery int
	// LastSeq is the sequence number of the newest durable event.
	LastSeq uint64
	// AppendedEvents counts events appended by this process (recovered
	// events not included).
	AppendedEvents uint64
	// RecoveredEvents counts events replayed from disk at open.
	RecoveredEvents uint64
	// RecoveredCampaigns counts campaigns reconstructed at open.
	RecoveredCampaigns int
	// RecoveredAt is when the store was opened, zero if the directory
	// held no prior state.
	RecoveredAt time.Time
	// SnapshotsWritten counts snapshots written by this process.
	SnapshotsWritten uint64
	// LastSnapshotSeq is the last event folded into the newest snapshot
	// (0: no snapshot yet).
	LastSnapshotSeq uint64
	// WALBytes is the size of the live WAL segment tail (events not yet
	// folded into a snapshot).
	WALBytes int64
	// Campaigns counts campaign records in the durable state.
	Campaigns int
	// Failed carries the message of the error that latched the store
	// into a failed state, empty while healthy. Once a WAL write fails,
	// every later append fails fast with the same cause: the log must
	// not acquire holes.
	Failed string
	// SnapshotError is the most recent automatic-snapshot failure,
	// empty when the last snapshot attempt succeeded. Unlike Failed it
	// is non-fatal: every append is still durable in the WAL; only
	// replay-time bounding is degraded until a snapshot succeeds.
	SnapshotError string
}
