package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
)

// WAL record layout, all integers little-endian:
//
//	offset 0  uint32  payload length n (bounded by maxRecordSize)
//	offset 4  uint32  CRC32-Castagnoli over the payload bytes
//	offset 8  n bytes JSON-encoded Event
//
// The checksum covers only the payload; a corrupted length field is
// caught either by the size bound or by the checksum of whatever the
// bogus length framed. There is no escape or resync marker: the log is
// a strict prefix format, and the first invalid record ends the
// readable log (everything after a corruption is untrusted).
const (
	recordHeaderSize = 8
	// maxRecordSize bounds a single record so a corrupted length field
	// cannot force a multi-gigabyte allocation. 64 MiB comfortably holds
	// the largest realistic event (a settled report over millions of
	// tasks would be split long before this).
	maxRecordSize = 64 << 20
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on
// mainstream CPUs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a WAL record that failed structural validation:
// a torn (truncated) tail, an impossible length, or a checksum
// mismatch. Recovery treats the first corrupt record as the end of the
// log; the fuzz target asserts the decoder can only ever return it, not
// panic.
var ErrCorrupt = errors.New("store: corrupt WAL record")

// appendRecord encodes payload as one WAL record into buf and returns
// the extended slice.
func appendRecord(buf, payload []byte) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, recordHeaderSize)...)
	return frameRecord(append(buf, payload...), start)
}

// frameRecord writes the header of the record at buf[start:], whose
// payload runs to the end of buf, so a payload can be encoded in place
// after a reserved header.
func frameRecord(buf []byte, start int) ([]byte, error) {
	payload := buf[start+recordHeaderSize:]
	if len(payload) > maxRecordSize {
		return buf[:start], fmt.Errorf("store: record of %d bytes exceeds the %d-byte bound", len(payload), maxRecordSize)
	}
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc32.Checksum(payload, crcTable))
	return buf, nil
}

// ReadRecord decodes the next WAL record from r. It returns io.EOF at a
// clean record boundary and an error wrapping ErrCorrupt for a torn
// tail, an oversized length, or a checksum mismatch. It never panics on
// any input.
func ReadRecord(r io.Reader) ([]byte, error) {
	var hdr [recordHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: torn header: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxRecordSize {
		return nil, fmt.Errorf("%w: impossible record length %d", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if m, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: torn payload (%d of %d bytes): %v", ErrCorrupt, m, n, err)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	return payload, nil
}

// walName formats a segment file name from the sequence number of its
// first record. Fixed-width hex keeps lexicographic order equal to
// sequence order, so directory listings sort into replay order.
func walName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.log", firstSeq) }

// parseWALName extracts the first-record sequence number from a segment
// file name; ok is false for files that are not WAL segments (including
// near-misses like temp files or wrong-width numbers).
func parseWALName(name string) (firstSeq uint64, ok bool) {
	return parseSeqName(name, "wal-", ".log")
}

// parseSeqName matches prefix + exactly 16 hex digits + suffix.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		!strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(prefix)+16], 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// scanSegment replays one segment file, calling fn for each valid
// record payload in order. It stops at the first invalid record and
// returns the byte offset of the valid prefix plus whether the segment
// ended clean (no trailing damage). An error from fn aborts the scan.
func scanSegment(path string, fn func(payload []byte) error) (validBytes int64, clean bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()

	// Count consumed bytes through the buffered reader so the valid
	// prefix length is known without re-reading.
	cr := &countingReader{r: f}
	br := bufio.NewReader(cr)
	for {
		payload, rerr := ReadRecord(br)
		if rerr == io.EOF {
			return validBytes, true, nil
		}
		if rerr != nil {
			if errors.Is(rerr, ErrCorrupt) {
				return validBytes, false, nil
			}
			return validBytes, false, rerr
		}
		if err := fn(payload); err != nil {
			return validBytes, false, err
		}
		validBytes = cr.n - int64(br.Buffered())
	}
}

// countingReader counts bytes handed to the buffered reader above it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
