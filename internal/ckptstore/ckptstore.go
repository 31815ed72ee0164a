// Package ckptstore is the persistent, content-addressed checkpoint
// store: serialized warm-state blobs filed under their options
// fingerprint in a directory that processes share — on one machine, or
// across machines on a shared filesystem.
//
// The store is format-agnostic: a blob is opaque bytes whose last eight
// bytes are a little-endian CRC-64 (ECMA) of everything before them —
// the same footer discipline the checkpoint encoder and the dist
// journal use. The store verifies that seal on both read and write, so
// a torn file or a corrupted byte never crosses a store boundary;
// semantic validation (format version, key match, structural
// invariants) belongs to the checkpoint decoder above.
package ckptstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
)

// ErrNotFound reports a key the store has no checkpoint for. Callers
// treat it as "warm locally", never as a failure.
var ErrNotFound = errors.New("ckptstore: checkpoint not found")

// Store is a content-addressed blob store keyed by the checkpoint's
// options fingerprint. Implementations must be safe for concurrent use.
type Store interface {
	// Get returns the blob stored under key, or ErrNotFound.
	Get(key uint64) ([]byte, error)
	// Put stores blob under key. Storing the same key again overwrites;
	// content-addressing makes that idempotent (same key, same bytes).
	Put(key uint64, blob []byte) error
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// minBlobBytes is the smallest sealed blob: an empty payload plus the
// CRC footer.
const minBlobBytes = 8

// Verify checks a blob's CRC-64 footer. Backends call it on every read
// and write path.
func Verify(blob []byte) error {
	if len(blob) < minBlobBytes {
		return fmt.Errorf("ckptstore: blob of %d bytes is shorter than its checksum footer", len(blob))
	}
	body := blob[:len(blob)-8]
	want := binary.LittleEndian.Uint64(blob[len(blob)-8:])
	if got := crc64.Checksum(body, crcTable); got != want {
		return fmt.Errorf("ckptstore: blob checksum mismatch (footer %016x, computed %016x)", want, got)
	}
	return nil
}

// KeyName renders a key as the fixed-width hex string used in disk
// paths and trace spans.
func KeyName(key uint64) string { return fmt.Sprintf("%016x", key) }
