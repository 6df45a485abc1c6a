// The manifest: the single source of truth for a disk-backed table's visible
// state. Segment files are anonymous until an append-only MANIFEST record
// publishes them, so the write path can prepare any number of files (temp
// write → fsync → rename → dir fsync) and adopt them all with one record —
// the commit point of InsertBatch, Flush and SortBy. A crash before the
// record leaves orphan files that recovery quarantines; a crash during the
// record leaves a torn tail that replay truncates; either way the table
// reopens as exactly a manifest generation, never a hybrid.
//
// Records are single text lines framed with a CRC32C so replay can tell a
// torn tail from interior damage:
//
//	QM1 add <file>,<id>,<rows>,<bytes>,<filecrc> ... #<crc>
//	QM1 switch <gen> [<file>,<id>,<rows>,<bytes>,<filecrc> ...] #<crc>
//
// "add" appends segments to the current generation (InsertBatch/Flush);
// "switch" replaces the whole segment set under a new generation (SortBy).
// <filecrc> and <crc> are 8-hex-digit CRC32C values; <crc> covers everything
// on the line before " #".
package storage

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/faultfs"
)

// manifestName is the per-table manifest file, living in the table directory
// next to the segment files it describes.
const manifestName = "MANIFEST"

// manMagic tags every manifest record; bump it if the record grammar changes.
const manMagic = "QM1"

// manEntry is one published segment: its file name (relative to the table
// directory), id within the generation, row count, file size, and whole-file
// CRC32C.
type manEntry struct {
	file  string
	id    int
	rows  int
	bytes int64
	crc   uint32
}

// manifestState is the result of replaying a manifest: the current
// generation and its segment list, in adoption order.
type manifestState struct {
	gen     int
	entries []manEntry
}

func (e manEntry) String() string {
	return fmt.Sprintf("%s,%d,%d,%d,%08x", e.file, e.id, e.rows, e.bytes, e.crc)
}

func parseManEntry(s string) (manEntry, error) {
	var e manEntry
	parts := strings.Split(s, ",")
	if len(parts) != 5 || parts[0] == "" || strings.ContainsAny(parts[0], "/ ") {
		return e, fmt.Errorf("entry %q is not file,id,rows,bytes,crc", s)
	}
	var n [4]int64
	for i, f := range parts[1:] {
		base := 10
		if i == 3 {
			base = 16 // the crc, 32 bits
		}
		v, err := strconv.ParseInt(f, base, 64)
		if err != nil || base == 16 && v>>32 != 0 {
			return e, fmt.Errorf("entry %q: bad field %d: %v", s, i+1, err)
		}
		n[i] = v
	}
	e.file, e.id, e.rows, e.bytes, e.crc = parts[0], int(n[0]), int(n[1]), n[2], uint32(n[3])
	return e, nil
}

// frameRecord wraps a payload into one checksummed manifest line.
func frameRecord(payload string) string {
	body := manMagic + " " + payload
	return fmt.Sprintf("%s #%08x\n", body, crc32.Checksum([]byte(body), crcTable))
}

// parseRecord validates one line's frame and returns its payload.
func parseRecord(line string) (string, error) {
	hash := strings.LastIndex(line, " #")
	if hash < 0 || len(line)-hash != 10 {
		return "", fmt.Errorf("record %q has no checksum frame", line)
	}
	body, crcHex := line[:hash], line[hash+2:]
	want, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil {
		return "", fmt.Errorf("record %q: bad checksum field: %v", line, err)
	}
	if got := crc32.Checksum([]byte(body), crcTable); got != uint32(want) {
		return "", fmt.Errorf("record checksum %08x, want %08x", got, uint32(want))
	}
	if !strings.HasPrefix(body, manMagic+" ") {
		return "", fmt.Errorf("record %q does not start with %q", line, manMagic)
	}
	return body[len(manMagic)+1:], nil
}

// parseManEntries parses a record's entry fields, all or nothing.
func parseManEntries(fields []string) ([]manEntry, error) {
	out := make([]manEntry, 0, len(fields))
	for _, f := range fields {
		e, err := parseManEntry(f)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// applyRecord folds one payload into the replay state. The whole record is
// parsed before any state changes, so a record rejected partway (a CRC-valid
// line with a malformed later entry) leaves ms untouched — replay must never
// adopt entries from a record it then discards as damaged.
func (ms *manifestState) applyRecord(payload string) error {
	fields := strings.Fields(payload)
	if len(fields) == 0 {
		return fmt.Errorf("empty record payload")
	}
	switch fields[0] {
	case "add":
		if len(fields) < 2 {
			return fmt.Errorf("add record with no entries")
		}
		ents, err := parseManEntries(fields[1:])
		if err != nil {
			return err
		}
		ms.entries = append(ms.entries, ents...)
	case "switch":
		if len(fields) < 2 {
			return fmt.Errorf("switch record with no generation")
		}
		gen, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("switch record: bad generation: %v", err)
		}
		ents, err := parseManEntries(fields[2:])
		if err != nil {
			return err
		}
		ms.gen = gen
		ms.entries = append(ms.entries[:0], ents...)
	default:
		return fmt.Errorf("unknown record verb %q", fields[0])
	}
	return nil
}

// replayManifest reads and folds every record of a manifest file. A missing
// file is an empty manifest. A damaged tail — the residue a crash mid-append
// legitimately leaves — is reported via truncated and, when repair is set,
// physically truncated away so future appends start clean (recovery repairs;
// read-only scrubs don't). Damage in the *interior* (a bad record followed by
// good ones) cannot come from a torn append and fails with
// ErrManifestCorrupt instead.
func replayManifest(path string, repair bool) (ms manifestState, truncated int64, err error) {
	raw, rerr := os.ReadFile(path)
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return ms, 0, nil
		}
		return ms, 0, rerr
	}
	goodEnd := 0
	pos := 0
	var tailErr error
	for pos < len(raw) {
		nl := bytes.IndexByte(raw[pos:], '\n')
		if nl < 0 {
			tailErr = fmt.Errorf("unterminated record")
			break
		}
		line := string(raw[pos : pos+nl])
		payload, perr := parseRecord(line)
		if perr != nil {
			tailErr = perr
			break
		}
		if aerr := ms.applyRecord(payload); aerr != nil {
			tailErr = aerr
			break
		}
		pos += nl + 1
		goodEnd = pos
	}
	if tailErr == nil {
		return ms, 0, nil
	}
	// Distinguish torn tail from interior damage: if any later line still
	// frames correctly, the damage is not a crash artifact.
	rest := string(raw[goodEnd:])
	for _, line := range strings.Split(rest, "\n")[1:] {
		if line == "" {
			continue
		}
		if _, perr := parseRecord(line); perr == nil {
			return ms, 0, fmt.Errorf("%w: %s: bad record not at tail (%v)", ErrManifestCorrupt, path, tailErr)
		}
	}
	truncated = int64(len(raw) - goodEnd)
	if repair {
		if terr := os.Truncate(path, int64(goodEnd)); terr != nil {
			return ms, truncated, terr
		}
	}
	return ms, truncated, nil
}

// manifestSize returns the current size of the manifest file — the base
// offset the next record is appended at. A missing file is an empty manifest.
func manifestSize(dir string) (int64, error) {
	fi, err := os.Stat(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	return fi.Size(), nil
}

// appendManifest durably appends one record at the given base offset: the
// file is truncated back to base, the line written there, then fsynced. The
// truncate makes a retried append idempotent — a failed earlier attempt may
// have left the record (whole, after a failed fsync) or half of it (a torn
// write) on disk, and re-appending without the truncate would adopt the
// record twice on replay or strand torn bytes in the manifest interior. A
// crash (no retry runs) still leaves at most a torn tail, which replay
// truncates. Callers serialize appends per table (t.mu), so base is stable
// across the retry loop. Fault streams: "manifest.append" (torn-write capable
// — a partial firing writes roughly half the line, simulating a crash
// mid-append) and "manifest.fsync".
func appendManifest(dir, payload string, base int64, faults *faultfs.Injector) error {
	line := frameRecord(payload)
	partial, ferr := faults.CheckPartial("manifest.append")
	f, err := os.OpenFile(filepath.Join(dir, manifestName), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(base); err != nil {
		f.Close()
		return err
	}
	if ferr != nil {
		if partial {
			f.WriteAt([]byte(line[:len(line)/2]), base)
			f.Sync()
		}
		f.Close()
		return ferr
	}
	if _, err := f.WriteAt([]byte(line), base); err != nil {
		f.Close()
		return err
	}
	if err := faults.Check("manifest.fsync"); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSegmentFile publishes raw at path via the atomic dance: write to a
// .tmp sibling, fsync, rename over the final name. The caller fsyncs the
// directory (once per batch) and appends the manifest record that actually
// adopts the file. Fault streams: "segment.writefile" (torn-write capable),
// "segment.fsync", "segment.rename".
func writeSegmentFile(path string, raw []byte, faults *faultfs.Injector) error {
	tmp := path + ".tmp"
	partial, ferr := faults.CheckPartial("segment.writefile")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if ferr != nil {
		if partial {
			f.Write(raw[:len(raw)/2])
			f.Sync()
		}
		f.Close()
		return ferr
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return err
	}
	if err := faults.Check("segment.fsync"); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := faults.Check("segment.rename"); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// syncDir fsyncs a directory, making the renames inside it durable. Fault
// stream: "dir.fsync".
func syncDir(dir string, faults *faultfs.Injector) error {
	if err := faults.Check("dir.fsync"); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
