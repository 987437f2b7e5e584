// Package slo evaluates declarative service-level objectives against
// the in-process metrics history (internal/obs/series). Objectives are
// loaded from a schema-versioned JSON config, evaluated with
// multi-window burn-rate rules (a fast window that reacts and a slow
// window that confirms, SRE-style: an alert needs the budget burning
// in both), and surfaced three ways — a status document on /v1/slo,
// re-exported slo_* gauges in /metrics, and an optional /readyz gate.
package slo

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// ConfigSchema is the objectives-config schema identifier. Bump the
// suffix on any incompatible field change; readers reject unknown
// versions.
const ConfigSchema = "rsnsec.slo-config/v1"

// Objective types.
const (
	// TypeLatency judges a histogram family: good events are
	// observations at or under ThresholdSeconds.
	TypeLatency = "latency"
	// TypeErrorRate judges two counter families: bad over good+bad.
	TypeErrorRate = "error_rate"
	// TypeSaturation judges a gauge series: bad samples exceed Limit.
	TypeSaturation = "saturation"
)

// Objective is one declarative SLO.
type Objective struct {
	// Name identifies the objective in status documents and gauge
	// labels. Must be unique within a config.
	Name string `json:"name"`
	// Type is one of latency, error_rate, saturation.
	Type string `json:"type"`

	// Metric names the judged family: a histogram for latency, a gauge
	// series for saturation. Unused for error_rate.
	Metric string `json:"metric,omitempty"`
	// ThresholdSeconds is the latency objective's good/bad boundary.
	// Judged against histogram bucket bounds: observations are counted
	// good up to the largest bucket bound <= the threshold, so pick a
	// threshold on (or above) a bucket boundary.
	ThresholdSeconds float64 `json:"threshold_seconds,omitempty"`

	// GoodMetric / BadMetric are the error_rate objective's counter
	// families (e.g. serve_jobs_completed_total / serve_jobs_failed_total).
	GoodMetric string `json:"good_metric,omitempty"`
	BadMetric  string `json:"bad_metric,omitempty"`

	// Limit is the saturation objective's gauge ceiling; samples above
	// it are bad events.
	Limit float64 `json:"limit,omitempty"`

	// Target is the objective's good-event ratio on [0, 1), e.g. 0.99.
	Target float64 `json:"target"`

	// FastWindowMS / SlowWindowMS are the burn-rate windows; defaults
	// 5m / 30m. Both must fit the series store's retention.
	FastWindowMS int64 `json:"fast_window_ms,omitempty"`
	SlowWindowMS int64 `json:"slow_window_ms,omitempty"`

	// BurnThreshold is the burn rate at or above which (in both
	// windows) the objective is breaching; default 1 (burning the
	// budget exactly as fast as the target allows).
	BurnThreshold float64 `json:"burn_threshold,omitempty"`

	// GateReady couples the objective to /readyz: while breaching, the
	// daemon reports not-ready so load balancers drain it.
	GateReady bool `json:"gate_ready,omitempty"`
}

// FastWindow returns the effective fast window.
func (o *Objective) FastWindow() time.Duration {
	if o.FastWindowMS > 0 {
		return time.Duration(o.FastWindowMS) * time.Millisecond
	}
	return 5 * time.Minute
}

// SlowWindow returns the effective slow window.
func (o *Objective) SlowWindow() time.Duration {
	if o.SlowWindowMS > 0 {
		return time.Duration(o.SlowWindowMS) * time.Millisecond
	}
	return 30 * time.Minute
}

// Burn returns the effective burn threshold.
func (o *Objective) Burn() float64 {
	if o.BurnThreshold > 0 {
		return o.BurnThreshold
	}
	return 1
}

// Config is the rsnsec.slo-config/v1 document.
type Config struct {
	Schema     string      `json:"schema"`
	Objectives []Objective `json:"objectives"`
}

// Validate checks the config's structural invariants.
func (c *Config) Validate() error {
	if c == nil {
		return fmt.Errorf("slo config: nil")
	}
	if c.Schema != ConfigSchema {
		return fmt.Errorf("slo config: schema %q, this reader wants %q", c.Schema, ConfigSchema)
	}
	if len(c.Objectives) == 0 {
		return fmt.Errorf("slo config: no objectives")
	}
	seen := make(map[string]bool)
	for i := range c.Objectives {
		o := &c.Objectives[i]
		if o.Name == "" {
			return fmt.Errorf("slo config: objective %d: empty name", i)
		}
		if seen[o.Name] {
			return fmt.Errorf("slo config: duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
		if o.Target < 0 || o.Target >= 1 {
			return fmt.Errorf("slo config: objective %q: target %v, want [0, 1)", o.Name, o.Target)
		}
		if o.FastWindowMS < 0 || o.SlowWindowMS < 0 || o.BurnThreshold < 0 {
			return fmt.Errorf("slo config: objective %q: negative window or burn threshold", o.Name)
		}
		if o.FastWindow() > o.SlowWindow() {
			return fmt.Errorf("slo config: objective %q: fast window %s exceeds slow window %s",
				o.Name, o.FastWindow(), o.SlowWindow())
		}
		switch o.Type {
		case TypeLatency:
			if o.Metric == "" {
				return fmt.Errorf("slo config: objective %q: latency needs metric", o.Name)
			}
			if o.ThresholdSeconds <= 0 {
				return fmt.Errorf("slo config: objective %q: latency needs threshold_seconds > 0", o.Name)
			}
		case TypeErrorRate:
			if o.GoodMetric == "" || o.BadMetric == "" {
				return fmt.Errorf("slo config: objective %q: error_rate needs good_metric and bad_metric", o.Name)
			}
		case TypeSaturation:
			if o.Metric == "" {
				return fmt.Errorf("slo config: objective %q: saturation needs metric", o.Name)
			}
			if o.Limit <= 0 {
				return fmt.Errorf("slo config: objective %q: saturation needs limit > 0", o.Name)
			}
		default:
			return fmt.Errorf("slo config: objective %q: unknown type %q (want %s, %s or %s)",
				o.Name, o.Type, TypeLatency, TypeErrorRate, TypeSaturation)
		}
	}
	return nil
}

// MaxWindow returns the longest window any objective uses — the
// minimum retention the series store must carry.
func (c *Config) MaxWindow() time.Duration {
	var max time.Duration
	for i := range c.Objectives {
		if w := c.Objectives[i].SlowWindow(); w > max {
			max = w
		}
	}
	return max
}

// ReadConfig parses and validates an objectives config.
func ReadConfig(rd io.Reader) (*Config, error) {
	var c Config
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("slo config: parse: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadConfig reads and validates an objectives config file.
func LoadConfig(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("slo config: %w", err)
	}
	defer f.Close()
	c, err := ReadConfig(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
