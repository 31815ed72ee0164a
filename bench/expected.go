package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// expectedPath pins output digests: workload → seed → sha256 hex.
const expectedPath = "bench/expected.json"

type expectations map[string]map[string]string

func loadExpectations(path string) (expectations, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read expected digests: %w", err)
	}
	e := expectations{}
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return e, nil
}

func (e expectations) get(workload string, seed uint64) (string, bool) {
	d, ok := e[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

func (e expectations) set(workload string, seed uint64, digest string) {
	if e[workload] == nil {
		e[workload] = map[string]string{}
	}
	e[workload][strconv.FormatUint(seed, 10)] = digest
}

func (e expectations) write(path string) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
