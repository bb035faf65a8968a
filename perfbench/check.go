package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
)

// baselineSpec names a committed baseline file at the repository root and
// how to read it into key -> virtual record.
type baselineSpec struct {
	file string
	load func(data []byte) (map[string]any, error)
}

// baselineOf reads a gcbench baseline envelope of P records, rejecting one
// recorded at another workload scale. Keys carry prefix, so points of
// several files in one workload stay distinct.
func baselineOf[P any](prefix string, scale float64, key func(P) string) func([]byte) (map[string]any, error) {
	return func(data []byte) (map[string]any, error) {
		var f struct {
			Scale  float64 `json:"scale"`
			Points []P     `json:"points"`
		}
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, err
		}
		if f.Scale != scale {
			return nil, fmt.Errorf("records scale %g, want %g", f.Scale, scale)
		}
		m := make(map[string]any, len(f.Points))
		for _, p := range f.Points {
			k := prefix + key(p)
			if _, dup := m[k]; dup {
				return nil, fmt.Errorf("point %q recorded twice", k)
			}
			m[k] = noWall(p)
		}
		return m, nil
	}
}

// noWall zeroes a record's host wall time, its one field that is not
// virtual.
func noWall[P any](p P) P {
	if f := reflect.ValueOf(&p).Elem().FieldByName("WallNs"); f.IsValid() {
		f.SetInt(0)
	}
	return p
}

// invariants collects the broken ones among a run's accounting identities.
type invariants []string

func (iv *invariants) eq(what string, got, want int64) {
	if got != want {
		*iv = append(*iv, fmt.Sprintf("%s %d, want %d", what, got, want))
	}
}

func (iv *invariants) atMost(what string, got, limit int64) {
	if got > limit {
		*iv = append(*iv, fmt.Sprintf("%s %d exceeds %d", what, got, limit))
	}
}

func (iv invariants) err() error {
	if len(iv) == 0 {
		return nil
	}
	return errors.New(strings.Join(iv, "; "))
}
