package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"imc2/internal/model"
	"imc2/internal/platform"
)

// snapshotVersion guards against silently loading a future format.
const snapshotVersion = 1

// snapshotFile is the serialized fold of the log up to LastSeq.
type snapshotFile struct {
	Version int `json:"version"`
	// LastSeq is the sequence number of the last event folded into this
	// snapshot; replay resumes with LastSeq+1.
	LastSeq   uint64            `json:"last_seq"`
	Campaigns []*CampaignRecord `json:"campaigns"`
}

// snapName formats a snapshot file name from the last folded sequence
// number, fixed-width so lexicographic order equals sequence order.
func snapName(lastSeq uint64) string { return fmt.Sprintf("snap-%016x.json", lastSeq) }

// parseSnapName extracts the last-folded sequence number; ok is false
// for files that are not snapshots.
func parseSnapName(name string) (lastSeq uint64, ok bool) {
	return parseSeqName(name, "snap-", ".json")
}

// writeSnapshot persists the state atomically: temp file in the same
// directory, fsync, rename, fsync the directory. A crash at any point
// leaves either the previous snapshot set or the complete new file —
// never a half-written snapshot under the final name.
func writeSnapshot(dir string, lastSeq uint64, st *State) error {
	buf, err := appendSnapshot(nil, lastSeq, st.Campaigns())
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	// The temp file is created as a WAL segment is (0o644 under the
	// process umask), so a published snapshot is as readable as the log
	// it compacts. A temp file left by a crashed write is replaced.
	tmpName := filepath.Join(dir, snapName(lastSeq)+".tmp")
	if err := os.Remove(tmpName); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: removing stale snapshot temp file: %w", err)
	}
	tmp, err := os.OpenFile(tmpName, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp file: %w", err)
	}
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, snapName(lastSeq))); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	return syncDir(dir)
}

// appendSnapshot appends the snapshot file's JSON encoding, the bytes of
// json.Marshal(snapshotFile{snapshotVersion, lastSeq, recs}), to buf.
func appendSnapshot(buf []byte, lastSeq uint64, recs []*CampaignRecord) ([]byte, error) {
	buf = append(buf, `{"version":`...)
	buf = strconv.AppendInt(buf, snapshotVersion, 10)
	buf = append(buf, `,"last_seq":`...)
	buf = strconv.AppendUint(buf, lastSeq, 10)
	buf = append(buf, `,"campaigns":`...)
	if recs == nil {
		return append(buf, "null}"...), nil
	}
	buf = append(buf, '[')
	for k, rec := range recs {
		if k > 0 {
			buf = append(buf, ',')
		}
		var err error
		if buf, err = appendCampaignRecord(buf, rec); err != nil {
			return nil, err
		}
	}
	return append(buf, "]}"...), nil
}

// appendCampaignRecord appends json.Marshal(rec)'s bytes to buf. The
// record's rows are appended directly, as appendEvent appends a
// submissions event's: encoding/json would re-scan the whole output of
// their MarshalJSON. The two halves around them list CampaignRecord's
// other fields in declaration order, with the same tags.
func appendCampaignRecord(buf []byte, rec *CampaignRecord) ([]byte, error) {
	if rec == nil || len(rec.Submissions) == 0 {
		b, err := json.Marshal(rec)
		return append(buf, b...), err
	}
	head, err := json.Marshal(struct {
		ID     string         `json:"id"`
		Name   string         `json:"name,omitempty"`
		Tasks  []model.Task   `json:"tasks"`
		State  platform.State `json:"state"`
		Config ConfigRecord   `json:"config"`
	}{rec.ID, rec.Name, rec.Tasks, rec.State, rec.Config})
	if err != nil {
		return nil, err
	}
	buf = append(append(buf, head[:len(head)-1]...), `,"submissions":`...)
	if buf, err = rec.Submissions.AppendJSON(buf); err != nil {
		return nil, err
	}
	tail, err := json.Marshal(struct {
		Report *platform.Report `json:"report,omitempty"`
		Audit  *platform.Audit  `json:"audit,omitempty"`
	}{rec.Report, rec.Audit})
	if err != nil {
		return nil, err
	}
	if len(tail) == len("{}") {
		return append(buf, '}'), nil
	}
	return append(append(buf, ','), tail[1:]...), nil
}

// loadLatestSnapshot finds the newest usable snapshot in dir and
// returns its fold. Unreadable, corrupt or future-format snapshots are
// skipped in favor of older ones (the WAL still carries the events they
// covered, so skipping costs replay time, never data). With no usable
// snapshot it returns an empty state and lastSeq 0.
func loadLatestSnapshot(dir string) (st *State, lastSeq uint64, err error) {
	names, err := snapshotNames(dir)
	if err != nil {
		return nil, 0, err
	}
	// Newest first.
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		if st, lastSeq, ok := decodeSnapshot(buf); ok {
			return st, lastSeq, nil
		}
	}
	return &State{}, 0, nil
}

// decodeSnapshot decodes and validates one snapshot file. ok is false
// for a snapshot recovery must skip: one that does not parse, has a
// future format, or lists campaigns no event log could have folded to
// (a null record, an empty campaign ID, or one ID twice).
func decodeSnapshot(buf []byte) (st *State, lastSeq uint64, ok bool) {
	var f snapshotFile
	if err := json.Unmarshal(buf, &f); err != nil || f.Version != snapshotVersion {
		return nil, 0, false
	}
	st = &State{byID: make(map[string]*CampaignRecord, len(f.Campaigns))}
	for _, rec := range f.Campaigns {
		if rec == nil || rec.ID == "" || st.byID[rec.ID] != nil {
			return nil, 0, false
		}
		st.byID[rec.ID] = rec
		st.ordered = append(st.ordered, rec)
	}
	return st, f.LastSeq, true
}

// snapshotNames lists snapshot files in dir, unordered.
func snapshotNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSnapName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// syncDir fsyncs a directory so a just-renamed file is durable. Some
// platforms cannot sync directories; those errors are ignored (the
// rename itself is still atomic).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Best-effort: directory fsync is unsupported on some platforms, and
	// the rename preceding it is atomic regardless.
	_ = d.Sync()
	return nil
}
