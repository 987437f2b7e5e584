package slo

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/series"
)

var t0 = time.Unix(1_700_000_000, 0)

func validConfig() *Config {
	return &Config{
		Schema: ConfigSchema,
		Objectives: []Objective{
			{Name: "latency", Type: TypeLatency, Metric: "lat_seconds",
				ThresholdSeconds: 0.1, Target: 0.9,
				FastWindowMS: 5_000, SlowWindowMS: 30_000, BurnThreshold: 2},
			{Name: "errors", Type: TypeErrorRate,
				GoodMetric: "ok_total", BadMetric: "bad_total", Target: 0.9,
				FastWindowMS: 5_000, SlowWindowMS: 30_000, BurnThreshold: 2, GateReady: true},
			{Name: "queue", Type: TypeSaturation, Metric: "depth", Limit: 5,
				Target: 0.5, FastWindowMS: 5_000, SlowWindowMS: 30_000, BurnThreshold: 1},
		},
	}
}

func TestConfigValidate(t *testing.T) {
	c := validConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.MaxWindow(); got != 30*time.Second {
		t.Fatalf("max window = %v", got)
	}
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Schema = "nope" }, "schema"},
		{func(c *Config) { c.Objectives = nil }, "no objectives"},
		{func(c *Config) { c.Objectives[1].Name = "latency" }, "duplicate"},
		{func(c *Config) { c.Objectives[0].Target = 1 }, "target"},
		{func(c *Config) { c.Objectives[0].Metric = "" }, "needs metric"},
		{func(c *Config) { c.Objectives[0].ThresholdSeconds = 0 }, "threshold_seconds"},
		{func(c *Config) { c.Objectives[1].BadMetric = "" }, "bad_metric"},
		{func(c *Config) { c.Objectives[2].Limit = 0 }, "limit"},
		{func(c *Config) { c.Objectives[0].Type = "weird" }, "unknown type"},
		{func(c *Config) { c.Objectives[0].FastWindowMS = 60_000 }, "exceeds slow window"},
	}
	for i, tc := range cases {
		c := validConfig()
		tc.mutate(c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %d: err = %v, want %q", i, err, tc.want)
		}
	}
}

func TestConfigReadRejectsUnknownFields(t *testing.T) {
	doc := `{"schema":"rsnsec.slo-config/v1","objectives":[{"name":"x","type":"latency","metric":"m","threshold_seconds":0.1,"target":0.9,"typo_field":1}]}`
	if _, err := ReadConfig(strings.NewReader(doc)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// sloFixture builds a series store + engine over real registry metrics
// and returns the mutators the tests drive.
type sloFixture struct {
	reg   *obs.Registry
	store *series.Store
	eng   *Engine
	lat   *obs.Histogram
	okC   *obs.Counter
	badC  *obs.Counter
	depth *obs.Gauge
}

func newFixture(t *testing.T) *sloFixture {
	t.Helper()
	reg := obs.NewRegistry()
	f := &sloFixture{
		reg:   reg,
		lat:   reg.Histogram("lat_seconds", 0.01, 0.1, 1),
		okC:   reg.Counter("ok_total"),
		badC:  reg.Counter("bad_total"),
		depth: reg.Gauge("depth"),
	}
	f.store = series.NewStore(reg, series.Config{Interval: time.Second, Retention: time.Minute})
	eng, err := NewEngine(validConfig(), f.store, reg)
	if err != nil {
		t.Fatal(err)
	}
	f.eng = eng
	return f
}

func TestEngineNoDataAndHealthy(t *testing.T) {
	f := newFixture(t)
	now := t0

	// No samples at all: every objective is unjudged.
	st := f.eng.Evaluate(now)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, o := range st.Objectives {
		if !o.NoData || o.Breaching || o.ErrorBudgetRemaining != 1 {
			t.Fatalf("idle objective = %+v", o)
		}
	}

	// Healthy traffic: fast requests, no errors, shallow queue.
	for i := 0; i < 30; i++ {
		f.lat.Observe(0.005)
		f.okC.Inc()
		f.depth.Set(1)
		now = now.Add(time.Second)
		f.store.Sample(now)
	}
	st = f.eng.Evaluate(now)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Breaching {
		t.Fatalf("healthy status breaching: %+v", st)
	}
	for _, o := range st.Objectives {
		if o.NoData || o.BurnFast != 0 || o.BurnSlow != 0 || o.ErrorBudgetRemaining != 1 {
			t.Fatalf("healthy objective = %+v", o)
		}
	}
}

func TestEngineBreachingAndGauges(t *testing.T) {
	f := newFixture(t)
	now := t0
	// Pin the collector clock to the fixture timeline so the /metrics
	// exposition below evaluates against the same windows the manual
	// samples fill (not the wall clock).
	f.eng.now = func() time.Time { return now }
	// Everything bad: slow requests, all errors, saturated queue.
	for i := 0; i < 30; i++ {
		f.lat.Observe(0.5) // over the 0.1s threshold
		f.badC.Inc()
		f.depth.Set(50) // over limit 5
		now = now.Add(time.Second)
		f.store.Sample(now)
	}
	st := f.eng.Evaluate(now)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if !st.Breaching {
		t.Fatalf("status not breaching: %+v", st)
	}
	for _, o := range st.Objectives {
		// 100% bad against a 10% (or 50%) budget: burn 10 (or 2), over
		// each threshold in both windows.
		if !o.Breaching || o.BurnFast < o.BurnThreshold || o.BurnSlow < o.BurnThreshold {
			t.Fatalf("objective %s = %+v", o.Name, o)
		}
		if o.ErrorBudgetRemaining != 0 {
			t.Fatalf("objective %s budget = %v, want 0", o.Name, o.ErrorBudgetRemaining)
		}
	}
	// gate_ready on "errors" couples to readiness.
	if !f.eng.Breaching(now) {
		t.Fatal("ready gate not breaching")
	}

	// The re-exported gauges carry the x1000 scaling.
	var sb strings.Builder
	if err := f.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `slo_burn_rate{objective="errors"} 10000`) {
		t.Fatalf("burn gauge missing/wrong:\n%s", out)
	}
	if !strings.Contains(out, `slo_error_budget_remaining{objective="errors"} 0`) {
		t.Fatalf("budget gauge missing/wrong:\n%s", out)
	}
}

func TestEngineFastOnlySpikeDoesNotBreach(t *testing.T) {
	f := newFixture(t)
	now := t0
	// 25s of good traffic, then a 5s error spike: the fast window (5s)
	// burns hot but the slow window (30s) stays under threshold 2
	// (5/30 bad against a 10% budget = burn ~1.67).
	for i := 0; i < 25; i++ {
		f.okC.Inc()
		now = now.Add(time.Second)
		f.store.Sample(now)
	}
	for i := 0; i < 5; i++ {
		f.badC.Inc()
		now = now.Add(time.Second)
		f.store.Sample(now)
	}
	st := f.eng.Evaluate(now)
	var errObj *ObjectiveStatus
	for i := range st.Objectives {
		if st.Objectives[i].Name == "errors" {
			errObj = &st.Objectives[i]
		}
	}
	if errObj.BurnFast < errObj.BurnThreshold {
		t.Fatalf("fast burn = %v, expected the spike to burn hot", errObj.BurnFast)
	}
	if errObj.BurnSlow >= errObj.BurnThreshold {
		t.Fatalf("slow burn = %v, expected the long window to absorb the spike", errObj.BurnSlow)
	}
	if errObj.Breaching {
		t.Fatal("fast-only spike must not breach the multi-window rule")
	}
	if f.eng.Breaching(now) {
		t.Fatal("ready gate flipped on a fast-only spike")
	}
}

func TestEngineMemoizesPerInterval(t *testing.T) {
	f := newFixture(t)
	now := t0
	f.okC.Inc()
	f.store.Sample(now)
	st1 := f.eng.Evaluate(now)
	st2 := f.eng.Evaluate(now.Add(100 * time.Millisecond))
	if st1 != st2 {
		t.Fatal("evaluation within one interval not memoized")
	}
	st3 := f.eng.Evaluate(now.Add(2 * time.Second))
	if st1 == st3 {
		t.Fatal("evaluation past the interval still memoized")
	}
}

func TestEngineRejectsWindowBeyondRetention(t *testing.T) {
	reg := obs.NewRegistry()
	st := series.NewStore(reg, series.Config{Interval: time.Second, Retention: 10 * time.Second})
	cfg := validConfig() // slow windows: 30s > 10s retention
	if _, err := NewEngine(cfg, st, reg); err == nil || !strings.Contains(err.Error(), "retention") {
		t.Fatalf("err = %v, want retention complaint", err)
	}
}

func TestStatusRoundTripAndRejects(t *testing.T) {
	f := newFixture(t)
	now := t0
	f.okC.Inc()
	f.depth.Set(1)
	f.lat.Observe(0.005)
	f.store.Sample(now.Add(time.Second))
	st := f.eng.Evaluate(now.Add(time.Second))

	var buf bytes.Buffer
	if err := obs.WriteDoc(&buf, st); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadDoc[Status](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Objectives) != 3 {
		t.Fatalf("round trip objectives = %d", len(back.Objectives))
	}

	bad := *st
	bad.Schema = "rsnsec.slo-status/v0"
	if err := obs.WriteDoc(&bytes.Buffer{}, &bad); err == nil {
		t.Fatal("unknown schema written")
	}
	buf.Reset()
	if err := json.NewEncoder(&buf).Encode(&bad); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ReadDoc[Status](&buf); err == nil {
		t.Fatal("unknown schema accepted")
	}
	bad2 := *st
	bad2.Breaching = !bad2.Breaching
	if err := bad2.Validate(); err == nil {
		t.Fatal("inconsistent breaching flag accepted")
	}
}

func TestConfigRoundTripFile(t *testing.T) {
	c := validConfig()
	var buf bytes.Buffer
	if err := obs.WriteDoc(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Objectives) != 3 || back.Objectives[1].GateReady != true {
		t.Fatalf("round trip = %+v", back)
	}
}
