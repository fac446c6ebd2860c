package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"imc2/internal/platform"
)

// FuzzWALDecode feeds arbitrary bytes through the WAL record decoder:
// whatever the input — torn, truncated, bit-flipped, or adversarially
// framed — the decoder must terminate with io.EOF or ErrCorrupt, never
// panic, never loop, and never hand back a record it did not verify.
// The input is also re-framed as a valid record and decoded back, so
// the corpus exercises the round trip alongside the garbage path.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a record at all"))
	valid, err := appendRecord(nil, []byte(`{"seq":1,"type":"opened","campaign":"cmp-0000000000000001"}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[recordHeaderSize] ^= 0x01
	f.Add(flipped) // payload bit flip
	two := append(append([]byte(nil), valid...), valid...)
	f.Add(two) // back-to-back records

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes: decode to exhaustion. Every outcome except a
		// verified record, clean EOF, or a corruption report is a bug.
		r := bytes.NewReader(data)
		for {
			payload, err := ReadRecord(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("ReadRecord returned a non-corruption error: %v", err)
				}
				break
			}
			if len(payload) > maxRecordSize {
				t.Fatalf("decoder returned an oversized record (%d bytes)", len(payload))
			}
		}

		// Round trip: the input framed as a record must decode to
		// itself, then read a clean EOF.
		if len(data) > maxRecordSize {
			return
		}
		framed, err := appendRecord(nil, data)
		if err != nil {
			t.Fatalf("appendRecord(%d bytes): %v", len(data), err)
		}
		fr := bytes.NewReader(framed)
		got, err := ReadRecord(fr)
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip changed the payload (%d bytes in, %d out)", len(data), len(got))
		}
		if _, err := ReadRecord(fr); err != io.EOF {
			t.Fatalf("round trip trailing read: %v, want io.EOF", err)
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes through the snapshot decoder
// recovery runs on every snapshot file: whatever the input, it must
// never panic, and it must either skip the file or hand back a
// consistent state — every listed record non-nil with a distinct,
// non-empty ID, and the index holding exactly the listed records.
func FuzzSnapshotDecode(f *testing.F) {
	valid, err := json.Marshal(snapshotFile{
		Version: snapshotVersion,
		LastSeq: 3,
		Campaigns: []*CampaignRecord{
			{ID: "cmp-0000000000000001", Name: "a", State: platform.StateOpen},
			{ID: "cmp-0000000000000002", State: platform.StateSettled},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"version":1,"last_seq":3,"campaigns":[null]}`))
	f.Add([]byte(`{"version":1,"last_seq":3,"campaigns":[{"id":"cmp-1"},{"id":"cmp-1"}]}`))
	f.Add(valid[:len(valid)-7]) // torn tail
	f.Add([]byte(`{"version":2,"last_seq":3,"campaigns":[]}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, _, ok := decodeSnapshot(data)
		if !ok {
			if st != nil {
				t.Fatal("skipped snapshot returned a state")
			}
			return
		}
		recs := st.Campaigns()
		if st.Len() != len(recs) || len(st.byID) != len(recs) {
			t.Fatalf("index holds %d records, listing %d", len(st.byID), len(recs))
		}
		for _, rec := range recs {
			if rec == nil || rec.ID == "" {
				t.Fatalf("decoded state lists record %+v", rec)
			}
			if st.Get(rec.ID) != rec {
				t.Fatalf("index and listing disagree on %q", rec.ID)
			}
		}
	})
}
