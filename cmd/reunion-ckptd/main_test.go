package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc64"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reunion/internal/ckptstore"
	"reunion/internal/obs"
)

func newTestServer(t *testing.T) (*httptest.Server, *obs.Registry, string) {
	t.Helper()
	root := t.TempDir()
	disk, err := ckptstore.NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := httptest.NewServer(newHandler(disk, root, reg))
	t.Cleanup(srv.Close)
	return srv, reg, root
}

func seal(payload []byte) []byte {
	crc := crc64.Checksum(payload, crc64.MakeTable(crc64.ECMA))
	return binary.LittleEndian.AppendUint64(payload, crc)
}

// series is one scalar metric series as Registry.WriteJSON renders it.
type series struct {
	Labels map[string]string
	Value  *int64
}

// metricSeries reads the registry through its JSON rendering: each
// family's series by family name.
func metricSeries(t *testing.T, reg *obs.Registry) map[string][]series {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name   string
			Series []series
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	byName := map[string][]series{}
	for _, f := range doc.Metrics {
		byName[f.Name] = f.Series
	}
	return byName
}

func TestStoreRoundTripAndMetrics(t *testing.T) {
	srv, reg, _ := newTestServer(t)
	blob := seal([]byte("checkpoint bytes"))
	url := srv.URL + "/ckpt/00000000deadbeef"

	// Miss first.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET before PUT: %d, want 404", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(blob))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT: %d", resp.StatusCode)
	}

	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, blob) {
		t.Fatalf("GET after PUT: %d, %d bytes", resp.StatusCode, len(got))
	}

	// /metrics serves the exposition, and the registry behind it
	// reflects the traffic just generated.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type: %q", ct)
	}
	if !bytes.Contains(exposition, []byte("# TYPE http_requests_total counter")) {
		t.Fatalf("/metrics does not expose http_requests_total:\n%s", exposition)
	}
	byName := metricSeries(t, reg)
	reqs, ok := byName["http_requests_total"]
	if !ok {
		t.Fatal("metrics missing http_requests_total")
	}
	var getOK, getMiss, put int64
	for _, s := range reqs {
		switch {
		case s.Labels["method"] == "GET" && s.Labels["code"] == "200":
			getOK = *s.Value
		case s.Labels["method"] == "GET" && s.Labels["code"] == "404":
			getMiss = *s.Value
		case s.Labels["method"] == "PUT":
			put = *s.Value
		}
	}
	if getOK != 1 || getMiss != 1 || put != 1 {
		t.Fatalf("request counters: GET200=%v GET404=%v PUT=%v, want 1/1/1", getOK, getMiss, put)
	}
	if _, ok := byName["ckptstore_ops_total"]; !ok {
		t.Fatal("metrics missing store-level ckptstore_ops_total")
	}
	if _, ok := byName["http_request_duration_us"]; !ok {
		t.Fatal("metrics missing http_request_duration_us")
	}
}

func TestHealthz(t *testing.T) {
	srv, _, root := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz: %d %q", resp.StatusCode, body)
	}

	// Deleting the root must flip the probe to 503.
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		os.RemoveAll(filepath.Join(root, e.Name()))
	}
	if err := os.Remove(root); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with deleted root: %d, want 503", resp.StatusCode)
	}
}

func TestPprofEndpoints(t *testing.T) {
	srv, _, _ := newTestServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d, want 200", path, resp.StatusCode)
		}
	}
	// goroutine profile via the index handler's name dispatch
	resp, err := http.Get(srv.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("goroutine profile: %d", resp.StatusCode)
	}
}

func TestStoreBytesUnperturbedByMiddleware(t *testing.T) {
	// The instrumented, middleware-wrapped daemon must store the exact
	// blob bytes a bare Disk would: write through the server, read from
	// a second bare Disk on the same root.
	srv, _, root := newTestServer(t)
	blob := seal([]byte("identical bytes"))
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/ckpt/0123456789abcdef", bytes.NewReader(blob))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	bare, err := ckptstore.NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bare.Get(0x0123456789abcdef)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("blob bytes differ between instrumented server path and bare disk")
	}
}
