package reunion

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"reunion/internal/ckptstore"
	"reunion/internal/obs"
)

// WarmCache + persistent store integration: the fleet-wide reuse
// contract (one warmup per cell across all workers), the
// silent-recompute policy for anything the store hands back that cannot
// be restored, and Len's safety under concurrent sharded access.

// storeCell builds a small, fast cell keyed by seed.
func storeCell(seed uint64) Options {
	o := DefaultOptions()
	o.Mode, o.Workload, o.Seed = ModeReunion, tinyWorkload(), seed
	o.WarmCycles, o.MeasureCycles = 2_000, 2_000
	return o
}

// memStore is an in-test Store whose contents the tests poison at will.
type memStore struct {
	mu sync.Mutex
	m  map[uint64][]byte
}

func newMemStore() *memStore { return &memStore{m: make(map[uint64][]byte)} }

func (s *memStore) Get(key uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.m[key]
	if !ok {
		return nil, ckptstore.ErrNotFound
	}
	return blob, nil
}

func (s *memStore) Put(key uint64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), blob...)
	return nil
}

// warmCounts reads a traced warm cache's local warmups and store hits
// from its spans, as a reader of the -trace-out file would.
func warmCounts(t *testing.T, tr *obs.Tracer) (warmups, hits int) {
	t.Helper()
	events := chromeTraceEvents(t, tr)
	for _, ev := range spansNamed(events, "warm", "store_fetch") {
		if spanArgs(ev)["outcome"] == "hit" {
			hits++
		}
	}
	return len(spansNamed(events, "warm", "warmup")), hits
}

// TestWarmCacheStoreFleet is the fleet-reuse contract over the disk
// store: worker A warms every cell once and uploads; worker B, sharing
// the directory, restores every cell from the store, warms nothing, and
// produces bit-identical Results.
func TestWarmCacheStoreFleet(t *testing.T) {
	cells := []Options{storeCell(31), storeCell(32), storeCell(33)}
	want := make([]Result, len(cells))
	for i, o := range cells {
		r, err := Run(o)
		if err != nil {
			t.Fatalf("fresh cell %d: %v", i, err)
		}
		want[i] = r
	}

	disk, err := ckptstore.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	workers := []struct {
		name  string
		store ckptstore.Store
		hits  int // expected store hits
		warms int // expected local warmups
	}{
		{"warming-worker", disk, 0, len(cells)},
		{"cold-worker-disk", disk, len(cells), 0},
	}
	for _, wk := range workers {
		warm := NewWarmCache()
		warm.UseStore(wk.store)
		tr := obs.NewTracer(0)
		warm.Observe(tr)
		for i, o := range cells {
			o.Warm = warm
			got, err := Run(o)
			if err != nil {
				t.Fatalf("%s cell %d: %v", wk.name, i, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s cell %d diverged from fresh run:\nfresh: %+v\nstore: %+v",
					wk.name, i, want[i], got)
			}
		}
		warmups, hits := warmCounts(t, tr)
		if hits != wk.hits {
			t.Errorf("%s: %d store hits, want %d", wk.name, hits, wk.hits)
		}
		if warmups != wk.warms {
			t.Errorf("%s: %d local warmups, want %d", wk.name, warmups, wk.warms)
		}
	}
}

// TestWarmCacheStoreSpans checks the store telemetry the warm cache
// emits around its store calls, over a populate-then-cold-fetch fleet
// run twice, traced and untraced: the Results and the stored blobs are
// byte-identical either way; the populating worker's store/get misses
// and its store/put carries the blob size; the cold worker's store/get
// hits with bytes equal to the blob length, and it warms nothing.
func TestWarmCacheStoreSpans(t *testing.T) {
	o := storeCell(41)
	key := CheckpointKey(o)
	stores := map[bool]*ckptstore.Disk{}
	for _, traced := range []bool{false, true} {
		d, err := ckptstore.NewDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		stores[traced] = d
	}

	for _, phase := range []string{"miss", "hit"} {
		var results [2]Result
		var tr *obs.Tracer
		for i, traced := range []bool{false, true} {
			warm := NewWarmCache()
			warm.UseStore(stores[traced])
			if traced {
				tr = obs.NewTracer(0)
				warm.Observe(tr)
			}
			run := o
			run.Warm = warm
			r, err := Run(run)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", phase, traced, err)
			}
			results[i] = r
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Fatalf("%s: traced Result differs from untraced:\nuntraced: %+v\ntraced:   %+v", phase, results[0], results[1])
		}
		blob, err := stores[true].Get(key)
		if err != nil {
			t.Fatal(err)
		}
		untracedBlob, err := stores[false].Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, untracedBlob) {
			t.Fatalf("%s: traced store blob differs from untraced", phase)
		}

		events := chromeTraceEvents(t, tr)
		gets := spansNamed(events, "store", "get")
		fetches := spansNamed(events, "warm", "store_fetch")
		puts := spansNamed(events, "store", "put")
		warmups := spansNamed(events, "warm", "warmup")
		if len(gets) != 1 || len(fetches) != 1 {
			t.Fatalf("%s: %d store/get and %d warm/store_fetch spans, want 1 each", phase, len(gets), len(fetches))
		}
		get, fetch := spanArgs(gets[0]), spanArgs(fetches[0])
		if get["outcome"] != phase || fetch["outcome"] != phase {
			t.Fatalf("%s: store/get outcome %v, warm/store_fetch outcome %v", phase, get["outcome"], fetch["outcome"])
		}
		if get["key"] != ckptstore.KeyName(key) {
			t.Fatalf("%s: store/get key %v, want %s", phase, get["key"], ckptstore.KeyName(key))
		}
		if phase == "miss" {
			if len(puts) != 1 || len(warmups) != 1 {
				t.Fatalf("populate: %d store/put and %d warm/warmup spans, want 1 each", len(puts), len(warmups))
			}
			put := spanArgs(puts[0])
			if put["bytes"] != float64(len(blob)) || put["err"] != false {
				t.Fatalf("populate: store/put args %v, want bytes %d and no error", put, len(blob))
			}
			continue
		}
		if get["bytes"] != float64(len(blob)) {
			t.Fatalf("hit: store/get bytes %v, want the blob's %d", get["bytes"], len(blob))
		}
		if len(puts) != 0 || len(warmups) != 0 {
			t.Fatalf("cold fetch: %d store/put and %d warm/warmup spans, want none", len(puts), len(warmups))
		}
	}
}

// TestWarmCacheStoreRecompute is the silent-fallback table: whatever
// the store returns — garbage, a truncated blob, a checkpoint for
// different options, a future or a previous format version — the run
// recomputes locally and matches the fresh result. A bad store costs time, never
// correctness, and never an error.
func TestWarmCacheStoreRecompute(t *testing.T) {
	o := storeCell(57)
	key := CheckpointKey(o)
	want, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// A genuine blob for *different* options (another seed), filed under
	// our key — the fingerprint gate must reject it.
	other := storeCell(58)
	otherBlob, err := EncodeCheckpoint(warmSystem(other).Snapshot(), CheckpointKey(other))
	if err != nil {
		t.Fatal(err)
	}
	// A well-sealed blob claiming a future format version.
	ourBlob, err := EncodeCheckpoint(warmSystem(o).Snapshot(), key)
	if err != nil {
		t.Fatal(err)
	}
	future := resealCheckpoint(t, ourBlob, func(b []byte) { b[4]++ })
	// And one claiming the previous version, which a store filled
	// before the last format change holds: the same bytes may mean
	// other state there, so it must never bind.
	previous := resealCheckpoint(t, ourBlob, func(b []byte) { b[4]-- })

	cases := []struct {
		name string
		blob []byte
	}{
		{"garbage", []byte("not a checkpoint at all")},
		{"truncated", ourBlob[:len(ourBlob)/3]},
		{"wrong-options", otherBlob},
		{"future-version", future},
		{"previous-version", previous},
	}
	for _, tc := range cases {
		store := newMemStore()
		store.m[key] = tc.blob
		warm := NewWarmCache()
		warm.UseStore(store)
		tr := obs.NewTracer(0)
		warm.Observe(tr)
		co := o
		co.Warm = warm
		got, err := Run(co)
		if err != nil {
			t.Fatalf("%s: run errored instead of recomputing: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recomputed run diverged from fresh run", tc.name)
		}
		if warmups, hits := warmCounts(t, tr); hits != 0 || warmups != 1 {
			t.Errorf("%s: hits=%d warmups=%d, want 0/1 (poisoned blob must recompute)",
				tc.name, hits, warmups)
		}
	}
}

// TestWarmCacheLenConcurrent hammers one store-backed cache from
// concurrent workers on distinct keys while polling Len — the sharded
// campaign's access pattern, run under -race in CI.
func TestWarmCacheLenConcurrent(t *testing.T) {
	warm := NewWarmCache()
	warm.UseStore(newMemStore())
	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			o := storeCell(seed)
			o.WarmCycles, o.MeasureCycles = 1_000, 500
			o.Warm = warm
			if _, err := Run(o); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
			_ = warm.Len()
		}(uint64(100 + i))
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = warm.Len()
			}
		}
	}()
	wg.Wait()
	close(done)
	if n := warm.Len(); n != workers {
		t.Errorf("cache holds %d keys, want %d", n, workers)
	}
}
