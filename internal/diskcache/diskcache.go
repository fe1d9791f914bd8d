// Package diskcache is a persistent content-addressed blob store: the
// on-disk half of the engine's code cache. Each entry is one immutable file
// named by its cache key, written atomically (temp file + rename) and framed
// with a header and a SHA-256 payload checksum, so a store directory can be
// shared between replicas over a common volume and survives crashes without
// a manifest — Open simply scans the directory and keeps what validates.
//
// The integrity contract mirrors the annotation-negotiation policy of the
// rest of the toolchain: degrade, don't fail. A truncated, bit-flipped or
// half-written entry is reported as a miss (and removed, best-effort), never
// as an error — the caller recompiles, exactly as if the entry were absent.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/faultinject"
)

// File framing. The payload checksum lives in the header (fixed offset), so
// a truncated payload — the typical crash artifact — fails validation
// without any trailing-bytes heuristics.
//
//	magic   "SVDC" (4 bytes)
//	u8      format version (currently 1)
//	u64le   payload length
//	32 B    SHA-256 of the payload
//	payload
const (
	magic         = "SVDC"
	formatVersion = 1
	headerSize    = 4 + 1 + 8 + sha256.Size
	// entrySuffix marks completed entries; temp files in flight use
	// tmpSuffix and are never considered part of the store.
	entrySuffix = ".svdc"
	tmpSuffix   = ".tmp"
)

// Stats counts the store's traffic since Open.
type Stats struct {
	// Hits and Misses count Get outcomes (a corrupt entry is a miss).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Writes counts successful Puts (duplicate keys are skipped, not
	// rewritten — entries are immutable).
	Writes int64 `json:"writes"`
	// Corrupt counts entries rejected by the header or checksum check, at
	// Open or on read, and entries the caller rejected with Remove.
	Corrupt int64 `json:"corrupt"`
	// Errors counts filesystem failures (full disk, permissions) that made
	// a Put or Get degrade to a no-op.
	Errors int64 `json:"errors"`
	// Entries is the number of valid entries currently indexed.
	Entries int `json:"entries"`
	// Bytes is the payload size of the indexed entries.
	Bytes int64 `json:"bytes"`
}

// Store is one cache directory. It is safe for concurrent use by multiple
// goroutines; multiple processes may share a directory (writes are atomic
// renames and entries are immutable, so readers never observe torn state).
type Store struct {
	dir string

	mu    sync.Mutex
	index map[string]int64 // key -> payload bytes, for known-valid entries
	stats Stats
}

// Open prepares a store rooted at dir, creating the directory if needed, and
// recovers the index by scanning: every completed entry file has its header
// validated (magic, version, declared length against the file size) and is
// indexed; anything that does not validate — foreign files, torn writes,
// truncations — is skipped, and leftover temp files from a crashed writer
// are removed. Payload checksums are verified lazily on Get, so opening a
// large shared volume stays cheap.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	s := &Store{dir: dir, index: make(map[string]int64)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		if strings.HasSuffix(name, tmpSuffix) {
			// A writer crashed mid-Put; the rename never happened, so the
			// temp file is garbage by construction.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		key, ok := strings.CutSuffix(name, entrySuffix)
		if !ok || key == "" {
			continue
		}
		n, err := validateHeader(filepath.Join(dir, name))
		if err != nil {
			s.stats.Corrupt++
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		s.index[key] = n
		s.stats.Bytes += n
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validateHeader checks magic, version and that the file holds exactly the
// declared payload, returning the payload length.
func validateHeader(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, errors.New("diskcache: short header")
	}
	if string(hdr[:4]) != magic {
		return 0, errors.New("diskcache: bad magic")
	}
	if hdr[4] != formatVersion {
		return 0, fmt.Errorf("diskcache: unknown format version %d", hdr[4])
	}
	n := binary.LittleEndian.Uint64(hdr[5:13])
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if fi.Size() != int64(headerSize)+int64(n) {
		return 0, errors.New("diskcache: declared length does not match file size")
	}
	return int64(n), nil
}

// Get returns the payload stored under key. ok is false on a miss — absent,
// torn, truncated or bit-flipped entries all count as misses (corrupt files
// are removed, best-effort), so the caller's only fallback path is
// "recompute"; Get never returns an error.
func (s *Store) Get(key string) (payload []byte, ok bool) {
	path := s.path(key)
	fault := faultinject.At("diskcache.get")
	if fault != nil {
		if err := fault.Apply(); err != nil {
			// Injected I/O failure: degrade exactly like a real one.
			s.miss(key, false, false)
			return nil, false
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		s.miss(key, false, os.IsNotExist(err))
		return nil, false
	}
	if fault != nil {
		fault.Corrupt(data)
	}
	payload, ok = decodeFrame(data)
	if !ok {
		s.drop(key, path)
		return nil, false
	}
	n := uint64(len(payload))
	s.mu.Lock()
	s.stats.Hits++
	if _, known := s.index[key]; !known {
		// Another replica sharing the volume wrote it after we opened.
		s.index[key] = int64(n)
		s.stats.Bytes += int64(n)
	}
	s.mu.Unlock()
	return payload, true
}

// decodeFrame validates the SVDC framing of one entry file's bytes and
// returns the payload. It only ever slices data — no allocation is sized
// from the (attacker-controlled) declared length, so hostile frames cannot
// over-allocate. FuzzDiskCacheFrame drives this parser directly.
func decodeFrame(data []byte) ([]byte, bool) {
	if len(data) < headerSize || string(data[:4]) != magic || data[4] != formatVersion {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(data[5:13])
	if uint64(len(data)-headerSize) != n {
		return nil, false
	}
	payload := data[headerSize:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[13:13+sha256.Size]) {
		return nil, false
	}
	return payload, true
}

// miss records a failed Get; notExist distinguishes plain misses from
// filesystem errors.
func (s *Store) miss(key string, corrupt, notExist bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Misses++
	if corrupt {
		s.stats.Corrupt++
	} else if !notExist {
		s.stats.Errors++
	}
	if n, known := s.index[key]; known {
		delete(s.index, key)
		s.stats.Bytes -= n
	}
}

// drop removes a corrupt entry and records the miss.
func (s *Store) drop(key, path string) {
	_ = os.Remove(path)
	s.miss(key, true, false)
}

// Remove rejects the entry Get just returned for key: its framing and
// checksum were intact, but the caller could not decode or use the payload.
// The file and the index entry go — otherwise Put, which never rewrites an
// indexed key, would skip the caller's replacement and every later reader
// would hit the same unusable bytes — and the hit is reclassified as a
// corrupt miss, keeping "a corrupt entry is a miss" true of the counters.
func (s *Store) Remove(key string) {
	s.drop(key, s.path(key))
	s.mu.Lock()
	s.stats.Hits--
	s.mu.Unlock()
}

// Put stores payload under key, atomically: the bytes are written to a temp
// file in the same directory and renamed into place, so concurrent readers
// (in this process or another sharing the volume) observe either the whole
// entry or none of it. Entries are immutable — a key that already exists is
// left untouched. Filesystem failures are counted and swallowed: a cache
// that cannot persist degrades to an in-memory cache, it does not take the
// caller down.
func (s *Store) Put(key string, payload []byte) {
	if key == "" {
		return
	}
	s.mu.Lock()
	_, exists := s.index[key]
	s.mu.Unlock()
	if exists {
		return
	}
	if f := faultinject.At("diskcache.put"); f != nil {
		if err := f.Apply(); err != nil {
			// Injected write failure: degrade to memory-only, like a full disk.
			s.fail()
			return
		}
	}
	hdr := make([]byte, headerSize, headerSize+len(payload))
	copy(hdr, magic)
	hdr[4] = formatVersion
	binary.LittleEndian.PutUint64(hdr[5:13], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(hdr[13:], sum[:])

	tmp, err := os.CreateTemp(s.dir, "put-*"+tmpSuffix)
	if err != nil {
		s.fail()
		return
	}
	_, werr := tmp.Write(append(hdr, payload...))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		s.fail()
		return
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		_ = os.Remove(tmp.Name())
		s.fail()
		return
	}
	s.mu.Lock()
	if _, known := s.index[key]; !known {
		s.index[key] = int64(len(payload))
		s.stats.Bytes += int64(len(payload))
	}
	s.stats.Writes++
	s.mu.Unlock()
}

func (s *Store) fail() {
	s.mu.Lock()
	s.stats.Errors++
	s.mu.Unlock()
}

// Has reports whether the store has indexed an entry for key (without
// verifying its checksum; Get remains the source of truth).
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	return st
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+entrySuffix)
}
