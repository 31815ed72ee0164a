package ckptstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// seal wraps a payload in the store's CRC-64 footer, producing a valid
// blob without involving the checkpoint encoder.
func seal(payload []byte) []byte {
	sum := crc64.Checksum(payload, crc64.MakeTable(crc64.ECMA))
	return binary.LittleEndian.AppendUint64(append([]byte(nil), payload...), sum)
}

func TestVerify(t *testing.T) {
	good := seal([]byte("machine state"))
	if err := Verify(good); err != nil {
		t.Fatalf("valid blob rejected: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[3] ^= 0x40
	if Verify(bad) == nil {
		t.Error("bit-flipped blob passed verification")
	}
	if Verify(good[:len(good)-1]) == nil {
		t.Error("truncated blob passed verification")
	}
	if Verify([]byte{1, 2, 3}) == nil {
		t.Error("blob shorter than its footer passed verification")
	}
}

func TestKeyNameRoundTrip(t *testing.T) {
	for _, key := range []uint64{0, 1, 0xdeadbeefcafe0123, ^uint64(0)} {
		name := KeyName(key)
		got, err := strconv.ParseUint(name, 16, 64)
		if len(name) != 16 || strings.ToLower(name) != name || err != nil || got != key {
			t.Errorf("KeyName(%#x) = %q, want 16 lower-case hex digits", key, name)
		}
	}
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(0x1122334455667788)
	if _, err := d.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty store: %v, want ErrNotFound", err)
	}
	blob := seal([]byte("warm state"))
	if err := d.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(key)
	if err != nil || string(got) != string(blob) {
		t.Fatalf("Get after Put: %q, %v", got, err)
	}
	// Overwrite with identical content is idempotent.
	if err := d.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(key, []byte("unsealed")); err == nil {
		t.Error("Put accepted a blob without a valid footer")
	}
}

// TestDiskCrashDuringPut simulates a writer dying between temp-file
// write and rename: the orphaned temp file must be invisible to Get,
// and a later Put of the same key must still land atomically.
func TestDiskCrashDuringPut(t *testing.T) {
	root := t.TempDir()
	d, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(0xabcdef)
	blob := seal([]byte("complete checkpoint"))

	// The crash: a torn temp file sits in the final directory, holding a
	// prefix of the blob, never renamed.
	dir := filepath.Dir(d.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, filepath.Base(d.path(key))+".tmp123456")
	if err := os.WriteFile(torn, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := d.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get with only a torn temp file present: %v, want ErrNotFound", err)
	}
	if err := d.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(key)
	if err != nil || string(got) != string(blob) {
		t.Fatalf("Get after recovery Put: %v", err)
	}
}

// TestDiskCorruptAtRest proves a blob corrupted on disk is an error at
// Get, never handed to the decoder.
func TestDiskCorruptAtRest(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(42)
	if err := d.Put(key, seal([]byte("pristine"))); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(d.path(key))
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0x01
	if err := os.WriteFile(d.path(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(key); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of corrupted blob: %v, want checksum error", err)
	}
}

// TestDiskConcurrentPutSameKey is the property a store directory shared
// by several shards rests on: writers racing to Put the same checkpoint
// under one key, while readers Get it, never expose a torn blob. Each
// Get returns ErrNotFound or exactly the blob, and once the writers are
// done the key's directory holds the checkpoint file and nothing else —
// no temp file survives a completed Put.
func TestDiskConcurrentPutSameKey(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(0x5eed5eed)
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	blob := seal(payload)

	const writers, readers, puts = 6, 6, 8
	var wg, rg sync.WaitGroup
	var stop atomic.Bool
	var hits atomic.Int64
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for !stop.Load() {
				got, err := d.Get(key)
				switch {
				case errors.Is(err, ErrNotFound):
				case err != nil:
					t.Errorf("Get during concurrent Puts: %v", err)
					return
				case !bytes.Equal(got, blob):
					t.Errorf("Get returned %d bytes that are not the blob", len(got))
					return
				default:
					hits.Add(1)
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				if err := d.Put(key, blob); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()

	if got, err := d.Get(key); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("Get after the Puts: %v", err)
	}
	entries, err := os.ReadDir(filepath.Dir(d.path(key)))
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Base(d.path(key))
	for _, e := range entries {
		if e.Name() != want {
			t.Errorf("key directory holds %s besides %s", e.Name(), want)
		}
	}
	t.Logf("%d Gets returned the blob", hits.Load())
}
