package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"iotmap/internal/collector"
	"iotmap/internal/core/flows"
)

// Checkpoint container: a magic header followed by tagged,
// length-prefixed, checksummed sections, so the window snapshot and
// each stream's dictionary state stay independently framed (and future
// sections can be added without breaking old readers that skip unknown
// tags).
//
//	"IOTCKPT2"                               8-byte magic (version in the tag)
//	"WIN0" u32-len u32-crc  flows.Snapshot   the sliding window
//	"DCT0" u32-len u32-crc  dictionary bundle all retained DictStates
//
// The per-section CRC32 (IEEE, over the section body only) is the
// torn-write detector: a checkpoint that lost its tail in a crash — or
// had a sector go bad underneath it — fails closed at restore instead
// of resurrecting a half-window.
//
// The dictionary bundle is itself length-prefixed per entry: source
// label, exporter epoch, advertised rate, the per-entry address
// families, and the flows.WireTables snapshot. Everything is
// little-endian, matching the flows snapshot codec.
const (
	checkpointMagic = "IOTCKPT2"
	sectionWindow   = "WIN0"
	sectionDicts    = "DCT0"
	// maxSectionBytes bounds one section (and any length field inside
	// the dictionary bundle) against a corrupt header allocating GBs.
	maxSectionBytes = 1 << 31
	// prevSuffix is the rotation keep: the previous checkpoint survives
	// as path+prevSuffix so a torn newest file is not the end of the
	// line at restore time.
	prevSuffix = ".prev"
)

// writeCheckpoint atomically persists the window and dictionary state:
// the container is written to a temp file in the destination directory,
// synced, then renamed over path — a crash mid-write leaves the
// previous checkpoint intact. Before the final rename an existing
// checkpoint rotates to path+".prev", so restore always has a
// known-good fallback one generation back.
func writeCheckpoint(path string, win *flows.Window, dicts map[string]*collector.DictState) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	n, err := writeContainer(bw, win, dicts)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if _, err := os.Stat(path); err == nil {
		// Rotation is best-effort: a failed rename (exotic filesystems)
		// must not block the fresh checkpoint from landing.
		os.Rename(path, path+prevSuffix) //nolint:errcheck
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return n, nil
}

func writeContainer(dst io.Writer, win *flows.Window, dicts map[string]*collector.DictState) (int64, error) {
	var total int64
	put := func(b []byte) error {
		n, err := dst.Write(b)
		total += int64(n)
		return err
	}
	if err := put([]byte(checkpointMagic)); err != nil {
		return total, err
	}

	var sec bytes.Buffer
	if err := flows.Snapshot(&sec, win); err != nil {
		return total, err
	}
	if err := putSection(put, sectionWindow, sec.Bytes()); err != nil {
		return total, err
	}

	sec.Reset()
	if err := encodeDicts(&sec, dicts); err != nil {
		return total, err
	}
	if err := putSection(put, sectionDicts, sec.Bytes()); err != nil {
		return total, err
	}
	return total, nil
}

func putSection(put func([]byte) error, tag string, body []byte) error {
	if err := put([]byte(tag)); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	if err := put(hdr[:]); err != nil {
		return err
	}
	return put(body)
}

// encodeDicts serializes the dictionary bundle in sorted source order,
// so back-to-back checkpoints of identical state are byte-identical.
func encodeDicts(dst *bytes.Buffer, dicts map[string]*collector.DictState) error {
	srcs := make([]string, 0, len(dicts))
	for src := range dicts {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	putU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		dst.Write(b[:])
	}
	putBytes := func(b []byte) {
		putU32(uint32(len(b)))
		dst.Write(b)
	}
	putBools := func(v []bool) {
		b := make([]byte, len(v))
		for i, x := range v {
			if x {
				b[i] = 1
			}
		}
		putBytes(b)
	}
	putU32(uint32(len(dicts)))
	for _, src := range srcs {
		ds := dicts[src]
		putBytes([]byte(src))
		var e [8]byte
		binary.LittleEndian.PutUint64(e[:], uint64(ds.Epoch))
		dst.Write(e[:])
		putU32(ds.Rate)
		putBools(ds.LineV4)
		putBools(ds.BackV4)
		var tab bytes.Buffer
		if err := ds.Tables.Snapshot(&tab); err != nil {
			return err
		}
		putBytes(tab.Bytes())
	}
	return nil
}

// loadCheckpoint restores a checkpoint container against the given
// index and window options: the window section is mandatory, the
// dictionary section optional (dict-less checkpoints), and unknown
// section tags are skipped. Every section is CRC32-verified.
func loadCheckpoint(path string, idx *flows.BackendIndex, winOpts flows.Options) (*flows.Window, map[string]*collector.DictState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(data) < len(checkpointMagic) {
		return nil, nil, fmt.Errorf("serve: %s is not a checkpoint (too short)", path)
	}
	if magic := string(data[:len(checkpointMagic)]); magic != checkpointMagic {
		return nil, nil, fmt.Errorf("serve: %s is not a checkpoint this build reads (magic %q, want %q)", path, magic, checkpointMagic)
	}
	rest := data[len(checkpointMagic):]
	const hdrLen = 12
	var win *flows.Window
	var winBuf []byte
	var dictBuf []byte
	for len(rest) > 0 {
		if len(rest) < hdrLen {
			return nil, nil, fmt.Errorf("serve: truncated section header")
		}
		tag := string(rest[:4])
		ln := binary.LittleEndian.Uint32(rest[4:8])
		if uint64(ln) > maxSectionBytes || uint64(ln) > uint64(len(rest)-hdrLen) {
			return nil, nil, fmt.Errorf("serve: section %q claims %d bytes, %d remain", tag, ln, len(rest)-hdrLen)
		}
		body := rest[hdrLen : hdrLen+int(ln)]
		want := binary.LittleEndian.Uint32(rest[8:12])
		if got := crc32.ChecksumIEEE(body); got != want {
			return nil, nil, fmt.Errorf("serve: section %q CRC mismatch (got %08x, want %08x)", tag, got, want)
		}
		rest = rest[hdrLen+int(ln):]
		switch tag {
		case sectionWindow:
			winBuf = body
		case sectionDicts:
			dictBuf = body
		}
	}
	if winBuf == nil {
		return nil, nil, fmt.Errorf("serve: checkpoint has no window section")
	}
	win, err = flows.Restore(bytes.NewReader(winBuf), idx, winOpts)
	if err != nil {
		return nil, nil, err
	}
	dicts := map[string]*collector.DictState{}
	if dictBuf != nil {
		if dicts, err = decodeDicts(dictBuf, win); err != nil {
			return nil, nil, err
		}
	}
	return win, dicts, nil
}

func decodeDicts(buf []byte, win *flows.Window) (map[string]*collector.DictState, error) {
	r := bytes.NewReader(buf)
	getU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	getBytes := func() ([]byte, error) {
		n, err := getU32()
		if err != nil {
			return nil, err
		}
		if uint64(n) > uint64(r.Len()) {
			return nil, fmt.Errorf("serve: dictionary bundle field claims %d bytes, %d remain", n, r.Len())
		}
		b := make([]byte, n)
		_, err = io.ReadFull(r, b)
		return b, err
	}
	getBools := func() ([]bool, error) {
		b, err := getBytes()
		if err != nil {
			return nil, err
		}
		v := make([]bool, len(b))
		for i, x := range b {
			v[i] = x != 0
		}
		return v, nil
	}
	count, err := getU32()
	if err != nil {
		return nil, err
	}
	if uint64(count) > uint64(r.Len()) { // each entry is > 1 byte
		return nil, fmt.Errorf("serve: dictionary bundle claims %d entries, %d bytes remain", count, r.Len())
	}
	dicts := make(map[string]*collector.DictState, count)
	for i := uint32(0); i < count; i++ {
		src, err := getBytes()
		if err != nil {
			return nil, err
		}
		var e [8]byte
		if _, err := io.ReadFull(r, e[:]); err != nil {
			return nil, err
		}
		epoch := int64(binary.LittleEndian.Uint64(e[:]))
		rate, err := getU32()
		if err != nil {
			return nil, err
		}
		lineV4, err := getBools()
		if err != nil {
			return nil, err
		}
		backV4, err := getBools()
		if err != nil {
			return nil, err
		}
		tabBuf, err := getBytes()
		if err != nil {
			return nil, err
		}
		tables, err := flows.RestoreWireTables(bytes.NewReader(tabBuf), win)
		if err != nil {
			return nil, fmt.Errorf("serve: dictionary %q: %w", src, err)
		}
		dicts[string(src)] = &collector.DictState{
			Source: string(src), Epoch: epoch, Rate: rate,
			Tables: tables, LineV4: lineV4, BackV4: backV4,
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("serve: %d trailing bytes after dictionary bundle", r.Len())
	}
	return dicts, nil
}
