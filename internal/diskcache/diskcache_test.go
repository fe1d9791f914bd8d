package diskcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("native image bytes")
	s.Put("k1", payload)
	got, ok := s.Get("k1")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after Put = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Writes != 1 || st.Hits != 1 || st.Entries != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEntriesAreImmutable(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("first"))
	s.Put("k", []byte("second")) // must be a no-op
	got, ok := s.Get("k")
	if !ok || string(got) != "first" {
		t.Fatalf("entry was rewritten: %q, %v", got, ok)
	}
	if st := s.Stats(); st.Writes != 1 {
		t.Fatalf("writes = %d, want 1", st.Writes)
	}
}

// TestRemoveLetsPutReplace: an entry its reader rejected (checksum fine,
// payload unusable) must leave the file system and the index, be counted as
// a corrupt miss rather than a hit, and not block the replacement Put.
func TestRemoveLetsPutReplace(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("unusable"))
	s.Put("other", []byte("kept"))
	if _, ok := s.Get("k"); !ok {
		t.Fatal("Get missed a fresh entry")
	}
	s.Remove("k")
	if s.Has("k") {
		t.Error("removed key still indexed")
	}
	if _, err := os.Stat(filepath.Join(dir, "k"+entrySuffix)); !os.IsNotExist(err) {
		t.Errorf("removed entry still on disk (stat err %v)", err)
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 || st.Corrupt != 1 || st.Entries != 1 || st.Bytes != 4 {
		t.Errorf("stats after Remove = %+v, want the hit reclassified as a corrupt miss", st)
	}
	s.Put("k", []byte("replacement"))
	if got, ok := s.Get("k"); !ok || string(got) != "replacement" {
		t.Fatalf("Get after replacement = %q, %v", got, ok)
	}
}

func TestReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", []byte("aaa"))
	s.Put("b", []byte("bbbb"))

	// A fresh store over the same directory — the restart path — must see
	// both entries without any manifest.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Entries != 2 || st.Bytes != 7 {
		t.Fatalf("recovered stats = %+v, want 2 entries / 7 bytes", st)
	}
	if got, ok := s2.Get("b"); !ok || string(got) != "bbbb" {
		t.Fatalf("recovered Get = %q, %v", got, ok)
	}
}

func TestOpenSkipsGarbageAndTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("good", []byte("payload"))

	// Simulate a crashed writer and foreign files sharing the volume.
	if err := os.WriteFile(filepath.Join(dir, "crash-123.tmp"), []byte("half a wri"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn.svdc"), []byte("SV"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Entries != 1 || st.Corrupt != 1 {
		t.Fatalf("recovered stats = %+v, want 1 entry, 1 corrupt", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "crash-123.tmp")); !os.IsNotExist(err) {
		t.Error("crashed temp file survived Open")
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Error("foreign file was removed by Open")
	}
}

func TestTruncatedEntryIsAMissNeverAnError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("some longer payload to truncate"))
	path := filepath.Join(dir, "k.svdc")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); ok {
		t.Fatalf("truncated entry returned %q", got)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats after truncation = %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry was not removed")
	}
}

func TestBitFlippedPayloadIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("payload under checksum"))
	path := filepath.Join(dir, "k.svdc")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("bit-flipped entry validated")
	}
	// The header still parses, so this corruption is only caught by the
	// payload checksum — and must still degrade to a miss.
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("k%d", i%5)
				s.Put(key, []byte(key+"-payload"))
				if got, ok := s.Get(key); ok && string(got) != key+"-payload" {
					t.Errorf("goroutine %d: Get(%s) = %q", g, key, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries != 5 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSharedVolumeVisibility(t *testing.T) {
	// Two stores over one directory stand for two replicas sharing a cache
	// volume: an entry written by one must be readable by the other without
	// reopening.
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a.Put("shared", []byte("written by a"))
	if got, ok := b.Get("shared"); !ok || string(got) != "written by a" {
		t.Fatalf("replica b sees %q, %v", got, ok)
	}
}
