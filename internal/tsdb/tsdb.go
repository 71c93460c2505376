// Package tsdb is womd's embedded metrics history: a small time-series
// store that records the process's own metric families on a fixed interval,
// holds recent samples in Gorilla-style compressed chunks, downsamples
// them through retention tiers that preserve min/max/sum/count and
// reset-aware counter increase, and persists sealed chunks, aggregate
// buckets, and alert state transitions to a seglog segment log so
// history and alert state survive a restart.
package tsdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"womcpcm/internal/metrics"
	"womcpcm/internal/seglog"
)

// The history's segment log identity; each frame holds one JSON record.
const (
	segHeader = "WOMTSv1\n"
	segPrefix = "hist-"
)

var (
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("tsdb: history closed")
	// ErrCorrupt reports corruption in a non-final segment — damage a
	// crash cannot produce, so it is surfaced instead of truncated away.
	ErrCorrupt = seglog.ErrCorrupt
)

// Point is one raw sample. T is unix milliseconds.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// AggPoint is one downsampled bucket: enough moments to answer avg, min,
// max, and sum honestly, plus Inc — the reset-aware counter increase whose
// deltas landed in this bucket — so rate() over a coarse tier agrees with
// rate() over raw.
type AggPoint struct {
	T     int64   `json:"t"` // bucket start, unix ms
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
	Count uint64  `json:"count"`
	First float64 `json:"first"`
	Last  float64 `json:"last"`
	Inc   float64 `json:"inc"`
}

// TierSpec is one retention tier. Step 0 marks the raw tier; any other
// step downsamples raw samples into Step-wide buckets. Retention bounds
// how long the tier's data is kept, in memory and on disk.
type TierSpec struct {
	Step      time.Duration
	Retention time.Duration
}

// DefaultTiers is raw 5s samples for 1h, 1m buckets for 24h, 10m buckets
// for 7d.
func DefaultTiers() []TierSpec {
	return []TierSpec{
		{Step: 0, Retention: time.Hour},
		{Step: time.Minute, Retention: 24 * time.Hour},
		{Step: 10 * time.Minute, Retention: 7 * 24 * time.Hour},
	}
}

// ParseTiers parses womd's -history-retention syntax: comma-separated
// step=retention pairs, finest tier first, where step is "raw" (or "0")
// for the raw tier and a Go duration otherwise — e.g.
// "raw=1h,1m=24h,10m=168h".
func ParseTiers(s string) ([]TierSpec, error) {
	var out []TierSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		stepStr, keepStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("tsdb: tier %q: want step=retention", part)
		}
		var step time.Duration
		if v := strings.TrimSpace(stepStr); v != "raw" && v != "0" {
			var err error
			if step, err = time.ParseDuration(v); err != nil {
				return nil, fmt.Errorf("tsdb: tier %q: %w", part, err)
			}
			if step <= 0 {
				return nil, fmt.Errorf("tsdb: tier %q: step must be positive or \"raw\"", part)
			}
		}
		keep, err := time.ParseDuration(strings.TrimSpace(keepStr))
		if err != nil {
			return nil, fmt.Errorf("tsdb: tier %q: %w", part, err)
		}
		if keep <= 0 {
			return nil, fmt.Errorf("tsdb: tier %q: retention must be positive", part)
		}
		out = append(out, TierSpec{Step: step, Retention: keep})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tsdb: empty retention spec")
	}
	if out[0].Step != 0 {
		return nil, fmt.Errorf("tsdb: first tier must be raw (step \"raw\")")
	}
	for i := 1; i < len(out); i++ {
		if out[i].Step <= out[i-1].Step {
			return nil, fmt.Errorf("tsdb: tiers must be ordered finest to coarsest")
		}
	}
	return out, nil
}

// Options tunes a DB. Zero values select production defaults.
type Options struct {
	// Dir holds the segment log; empty keeps history in memory only.
	Dir string
	// ScrapeInterval is the self-scrape cadence (default 5s).
	ScrapeInterval time.Duration
	// FlushInterval bounds how long finalized aggregate buckets and the
	// sealed-chunk backlog wait before being persisted (default 60s).
	FlushInterval time.Duration
	// Tiers is the retention ladder; default DefaultTiers(). The first
	// entry must be the raw tier (Step 0).
	Tiers []TierSpec
	// MaxSamplesPerChunk seals a head chunk at this many samples
	// (default 512).
	MaxSamplesPerChunk int
	// MaxSegmentBytes rotates to a fresh segment past this size
	// (default 4 MiB). Small segments make retention GC fine-grained.
	MaxSegmentBytes int64
	// MaxTransitions bounds the in-memory alert transition history
	// (default 4096).
	MaxTransitions int
	// Logger receives scrape and persistence errors; nil discards.
	Logger *slog.Logger
	// Now is the clock, a test hook; nil means time.Now.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.ScrapeInterval <= 0 {
		o.ScrapeInterval = 5 * time.Second
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 60 * time.Second
	}
	if len(o.Tiers) == 0 {
		o.Tiers = DefaultTiers()
	}
	if o.MaxSamplesPerChunk <= 0 {
		o.MaxSamplesPerChunk = 512
	}
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	if o.MaxTransitions <= 0 {
		o.MaxTransitions = 4096
	}
	return o
}

// aggState accumulates one series' downsampling into one tier.
type aggState struct {
	step    int64 // bucket width, ms
	bucketT int64 // current bucket start; -1 = none open
	cur     AggPoint
	done    []AggPoint // finalized buckets, sorted by T
	dirty   []AggPoint // finalized but not yet persisted
}

// series is one metric+labelset's full state across every tier.
type series struct {
	metric string
	labels map[string]string
	key    string

	head   *chunk
	sealed []sealedChunk
	dirty  []sealedChunk // sealed but not yet persisted

	// prev raw sample, the baseline for reset-aware increase.
	prevT   int64
	prevV   float64
	hasPrev bool

	aggs []*aggState // one per non-raw tier, in Options.Tiers order
}

// Transition is one persisted alert lifecycle event. Alert carries the
// alerting plane's own JSON view opaquely, so tsdb does not depend on the
// health package's types.
type Transition struct {
	At    time.Time       `json:"at"`
	To    string          `json:"to"` // pending|firing|resolved|flapped
	Key   string          `json:"key"`
	Alert json.RawMessage `json:"alert"`
}

// record is the on-disk payload: exactly one body per kind.
type record struct {
	Kind string `json:"kind"` // "chunk", "agg", or "alert"

	// chunk + agg common identity
	Metric string            `json:"metric,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`

	// chunk
	Start   int64  `json:"start,omitempty"` // ms
	End     int64  `json:"end,omitempty"`   // ms
	Samples int    `json:"samples,omitempty"`
	Data    []byte `json:"data,omitempty"` // chunk bitstream (base64 via JSON)

	// agg
	StepMs int64      `json:"step_ms,omitempty"`
	Points []AggPoint `json:"points,omitempty"`

	// alert
	Transition *Transition `json:"transition,omitempty"`
}

// DB is the history store. Its methods are safe for concurrent use.
type DB struct {
	opts Options
	now  func() time.Time
	log  *slog.Logger

	mu     sync.Mutex
	closed bool
	series map[string]*series

	seg     *seglog.Log   // nil keeps history in memory only
	segMaxT map[int]int64 // newest record time per segment, for GC

	transitions  []Transition
	activeAlerts map[string]Transition

	scrapes      uint64
	scrapeErrs   uint64
	samplesTotal uint64
	lastScrapeAt time.Time
	lastFlush    time.Time

	started bool
	stop    chan struct{}
	done    chan struct{}
}

// Open builds a DB and, when opts.Dir is set, replays its segment log —
// truncating a torn tail off the final segment — so prior history and
// alert state are queryable before the first scrape.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if len(opts.Tiers) == 0 || opts.Tiers[0].Step != 0 {
		return nil, fmt.Errorf("tsdb: first tier must be raw (step 0)")
	}
	for _, t := range opts.Tiers[1:] {
		if t.Step <= 0 {
			return nil, fmt.Errorf("tsdb: non-raw tier needs a positive step")
		}
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	db := &DB{
		opts:         opts,
		now:          now,
		log:          log,
		series:       make(map[string]*series),
		segMaxT:      make(map[int]int64),
		activeAlerts: make(map[string]Transition),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	if opts.Dir == "" {
		return db, nil
	}
	seg, err := seglog.Open(opts.Dir, seglog.Config{
		Header:          segHeader,
		Prefix:          segPrefix,
		MaxPayload:      16 << 20,
		MaxSegmentBytes: opts.MaxSegmentBytes,
	}, db.applyReplay)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	db.seg = seg
	db.finishReplay()
	return db, nil
}

// applyReplay indexes one replayed record. Unknown kinds are skipped, not
// fatal, so a newer writer's records do not brick an older reader; an
// undecodable payload is reported to seglog as a damaged frame.
func (db *DB) applyReplay(segIdx int, payload []byte) error {
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return err
	}
	switch rec.Kind {
	case "chunk":
		if len(rec.Data) == 0 || rec.Samples <= 0 {
			return nil
		}
		s := db.getSeries(rec.Metric, rec.Labels)
		s.sealed = append(s.sealed, sealedChunk{
			data: rec.Data, n: rec.Samples, startT: rec.Start, endT: rec.End,
		})
		db.noteSegTime(segIdx, rec.End)
	case "agg":
		if rec.StepMs <= 0 || len(rec.Points) == 0 {
			return nil
		}
		s := db.getSeries(rec.Metric, rec.Labels)
		for _, a := range db.aggsFor(s) {
			if a.step != rec.StepMs {
				continue
			}
			a.done = append(a.done, rec.Points...)
			db.noteSegTime(segIdx, rec.Points[len(rec.Points)-1].T+rec.StepMs)
		}
	case "alert":
		if rec.Transition == nil {
			return nil
		}
		db.applyTransition(*rec.Transition)
		db.noteSegTime(segIdx, rec.Transition.At.UnixMilli())
	}
	return nil
}

func (db *DB) noteSegTime(idx int, t int64) {
	if t > db.segMaxT[idx] {
		db.segMaxT[idx] = t
	}
}

// finishReplay sorts and merges replayed state into query order. A
// graceful shutdown persists partial aggregate buckets, so replay can see
// two points for the same bucket (pre- and post-restart halves); they are
// merged, not duplicated.
func (db *DB) finishReplay() {
	for _, s := range db.series {
		sort.Slice(s.sealed, func(i, j int) bool { return s.sealed[i].startT < s.sealed[j].startT })
		for _, a := range s.aggs {
			sort.Slice(a.done, func(i, j int) bool { return a.done[i].T < a.done[j].T })
			a.done = mergeAggDuplicates(a.done)
		}
	}
	sort.SliceStable(db.transitions, func(i, j int) bool {
		return db.transitions[i].At.Before(db.transitions[j].At)
	})
}

// mergeAggDuplicates folds sorted points sharing a bucket start into one.
func mergeAggDuplicates(pts []AggPoint) []AggPoint {
	if len(pts) < 2 {
		return pts
	}
	out := pts[:1]
	for _, p := range pts[1:] {
		last := &out[len(out)-1]
		if p.T != last.T {
			out = append(out, p)
			continue
		}
		if p.Min < last.Min {
			last.Min = p.Min
		}
		if p.Max > last.Max {
			last.Max = p.Max
		}
		last.Sum += p.Sum
		last.Count += p.Count
		last.Last = p.Last // sorted stable: later record wins
		last.Inc += p.Inc
	}
	return out
}

// applyTransition records one alert lifecycle event and updates the
// restart-durable active set.
func (db *DB) applyTransition(tr Transition) {
	db.transitions = append(db.transitions, tr)
	if over := len(db.transitions) - db.opts.MaxTransitions; over > 0 {
		db.transitions = append(db.transitions[:0], db.transitions[over:]...)
	}
	switch tr.To {
	case "pending", "firing":
		db.activeAlerts[tr.Key] = tr
	default: // resolved, flapped, or anything newer we don't know
		delete(db.activeAlerts, tr.Key)
	}
}

// getSeries finds or creates the series for metric+labels (caller holds
// db.mu or is inside Open's single-threaded replay).
func (db *DB) getSeries(metric string, labels map[string]string) *series {
	key := canonicalKey(metric, labels)
	if s, ok := db.series[key]; ok {
		return s
	}
	s := &series{metric: metric, labels: labels, key: key}
	s.aggs = db.aggsFor(s)
	db.series[key] = s
	return s
}

// aggsFor lazily builds the series' per-tier accumulators.
func (db *DB) aggsFor(s *series) []*aggState {
	if s.aggs != nil {
		return s.aggs
	}
	for _, t := range db.opts.Tiers[1:] {
		s.aggs = append(s.aggs, &aggState{step: t.Step.Milliseconds(), bucketT: -1})
	}
	return s.aggs
}

// Start launches the self-scrape loop. gather returns the families to
// record (engine Manager.Collect); it is called outside the DB lock, so
// they may include the DB's own Collect families.
func (db *DB) Start(gather func() []metrics.Family) {
	db.mu.Lock()
	if db.started || db.closed {
		db.mu.Unlock()
		return
	}
	db.started = true
	db.mu.Unlock()
	go func() {
		defer close(db.done)
		// First pass immediately: a restarted daemon has live samples —
		// and a scrape counter — before one interval elapses.
		db.ScrapeOnce(gather)
		t := time.NewTicker(db.opts.ScrapeInterval)
		defer t.Stop()
		for {
			select {
			case <-db.stop:
				return
			case <-t.C:
				db.ScrapeOnce(gather)
			}
		}
	}()
}

// ScrapeOnce gathers the families once and ingests every sample at the
// current time, keyed by family name plus suffix and the sample's labels.
// Exposed for deterministic tests and the smoke script.
func (db *DB) ScrapeOnce(gather func() []metrics.Family) {
	fams := gather() // outside db.mu: the families include db.Collect

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	now := db.now()
	db.scrapes++
	db.lastScrapeAt = now
	t := now.UnixMilli()
	for _, f := range fams {
		for _, sm := range f.Samples {
			var labels map[string]string
			if len(sm.Labels) > 0 {
				labels = make(map[string]string, len(sm.Labels))
				for _, l := range sm.Labels {
					labels[l.Name] = l.Value
				}
			}
			db.ingestLocked(db.getSeries(f.Name+sm.Suffix, labels), t, sm.Value)
			db.samplesTotal++
		}
	}
	db.maintainLocked(now)
}

// Append ingests one sample directly (backfill, ObserveJob, tests).
func (db *DB) Append(metric string, labels map[string]string, t int64, v float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	db.ingestLocked(db.getSeries(metric, labels), t, v)
}

// ObserveJob records one finished job's wall time under the experiment's
// history series.
func (db *DB) ObserveJob(experiment string, wallSeconds float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	s := db.getSeries("womd_history_job_wall_seconds", map[string]string{"experiment": experiment})
	db.ingestLocked(s, db.now().UnixMilli(), wallSeconds)
}

// ingestLocked appends one sample to a series and feeds every aggregate
// tier, attributing reset-aware counter increase to the bucket holding
// the later sample of each delta.
func (db *DB) ingestLocked(s *series, t int64, v float64) {
	if s.head == nil {
		s.head = &chunk{}
	} else if t <= s.head.endT {
		return // duplicate or time regression; self-scrape never rewinds
	}
	s.head.append(t, v)
	if s.head.n >= db.opts.MaxSamplesPerChunk {
		db.sealHeadLocked(s)
	}

	var inc float64
	if s.hasPrev {
		if d := v - s.prevV; d >= 0 {
			inc = d
		} else {
			inc = v // counter reset: the new value is the known increase
		}
	}
	s.prevT, s.prevV, s.hasPrev = t, v, true

	for _, a := range s.aggs {
		b := t - mod(t, a.step)
		if a.bucketT != b {
			if a.bucketT >= 0 {
				db.finalizeAggLocked(a)
			}
			a.bucketT = b
			a.cur = AggPoint{T: b, Min: v, Max: v, First: v}
		}
		c := &a.cur
		if v < c.Min {
			c.Min = v
		}
		if v > c.Max {
			c.Max = v
		}
		c.Sum += v
		c.Count++
		c.Last = v
		c.Inc += inc
	}
}

// mod is a floor modulus for possibly-negative timestamps.
func mod(t, step int64) int64 {
	m := t % step
	if m < 0 {
		m += step
	}
	return m
}

func (db *DB) finalizeAggLocked(a *aggState) {
	a.done = append(a.done, a.cur)
	a.dirty = append(a.dirty, a.cur)
	a.bucketT = -1
}

// sealHeadLocked freezes a full head chunk and queues it for persistence.
func (db *DB) sealHeadLocked(s *series) {
	if s.head == nil || s.head.n == 0 {
		return
	}
	sc := s.head.seal()
	s.sealed = append(s.sealed, sc)
	s.dirty = append(s.dirty, sc)
	s.head = nil
}

// maintainLocked runs the periodic bookkeeping that rides each scrape:
// seal aged heads, flush dirty state to disk, prune expired data, GC
// fully-expired segments.
func (db *DB) maintainLocked(now time.Time) {
	flushDue := now.Sub(db.lastFlush) >= db.opts.FlushInterval
	if flushDue {
		db.lastFlush = now
	}
	for _, s := range db.series {
		if flushDue && s.head != nil && s.head.n > 1 &&
			now.UnixMilli()-s.head.startT >= db.opts.FlushInterval.Milliseconds() {
			db.sealHeadLocked(s)
		}
	}
	db.pruneLocked(now)
	if flushDue {
		db.flushLocked(now)
	}
}

// pruneLocked drops chunks and buckets past their tier's retention.
func (db *DB) pruneLocked(now time.Time) {
	rawCut := now.Add(-db.opts.Tiers[0].Retention).UnixMilli()
	for _, s := range db.series {
		n := 0
		for _, sc := range s.sealed {
			if sc.endT >= rawCut {
				s.sealed[n] = sc
				n++
			}
		}
		clear(s.sealed[n:])
		s.sealed = s.sealed[:n]
		for i, a := range s.aggs {
			cut := now.Add(-db.opts.Tiers[i+1].Retention).UnixMilli()
			drop := 0
			for drop < len(a.done) && a.done[drop].T+a.step < cut {
				drop++
			}
			if drop > 0 {
				a.done = append(a.done[:0], a.done[drop:]...)
			}
		}
	}
}

// flushLocked persists dirty sealed chunks and finalized buckets, then
// deletes non-active segments whose newest record is past the longest
// retention.
func (db *DB) flushLocked(now time.Time) {
	if db.seg == nil {
		for _, s := range db.series {
			s.dirty = nil
			for _, a := range s.aggs {
				a.dirty = nil
			}
		}
		return
	}
	for _, s := range db.series {
		for _, sc := range s.dirty {
			rec := record{Kind: "chunk", Metric: s.metric, Labels: s.labels,
				Start: sc.startT, End: sc.endT, Samples: sc.n, Data: sc.data}
			if err := db.appendRecord(rec, sc.endT); err != nil {
				db.log.Error("history: persisting chunk", "err", err)
				return
			}
		}
		s.dirty = nil
		for _, a := range s.aggs {
			if len(a.dirty) == 0 {
				continue
			}
			rec := record{Kind: "agg", Metric: s.metric, Labels: s.labels,
				StepMs: a.step, Points: a.dirty}
			if err := db.appendRecord(rec, a.dirty[len(a.dirty)-1].T+a.step); err != nil {
				db.log.Error("history: persisting aggregates", "err", err)
				return
			}
			a.dirty = nil
		}
	}
	db.gcSegmentsLocked(now)
}

// gcSegmentsLocked unlinks sealed segments whose entire contents are past
// the longest retention tier.
func (db *DB) gcSegmentsLocked(now time.Time) {
	var maxRet time.Duration
	for _, t := range db.opts.Tiers {
		if t.Retention > maxRet {
			maxRet = t.Retention
		}
	}
	cut := now.Add(-maxRet).UnixMilli()
	head, _ := db.seg.Head()
	for idx, maxT := range db.segMaxT {
		if idx == head || maxT >= cut {
			continue
		}
		if err := db.seg.Remove(idx); err != nil {
			db.log.Error("history: removing expired segment", "segment", idx, "err", err)
			continue
		}
		delete(db.segMaxT, idx)
	}
}

// appendRecord encodes one record onto the log and notes maxT against the
// segment it landed in.
func (db *DB) appendRecord(rec record, maxT int64) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	idx, err := db.seg.Append(payload)
	if err != nil {
		return err
	}
	db.noteSegTime(idx, maxT)
	return nil
}

// Close stops the scrape loop, seals every head, finalizes every open
// aggregate bucket, and flushes all of it — a graceful restart loses
// nothing.
func (db *DB) Close() error {
	db.mu.Lock()
	started := db.started
	db.started = false
	db.mu.Unlock()
	if started {
		close(db.stop)
		<-db.done
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	for _, s := range db.series {
		db.sealHeadLocked(s)
		for _, a := range s.aggs {
			if a.bucketT >= 0 {
				db.finalizeAggLocked(a)
			}
		}
	}
	db.flushLocked(db.now())
	if db.seg == nil {
		return nil
	}
	return db.seg.Close()
}

// Collect returns the history plane's own womd_history_* families.
func (db *DB) Collect() []metrics.Family {
	db.mu.Lock()
	nSeries := len(db.series)
	var nChunks, nBytes, nAgg int
	for _, s := range db.series {
		nChunks += len(s.sealed)
		for _, sc := range s.sealed {
			nBytes += len(sc.data)
		}
		if s.head != nil {
			nChunks++
			nBytes += len(s.head.w.b)
		}
		for _, a := range s.aggs {
			nAgg += len(a.done)
		}
	}
	scrapes, errs, samples := db.scrapes, db.scrapeErrs, db.samplesTotal
	transitions := len(db.transitions)
	db.mu.Unlock()

	return []metrics.Family{
		metrics.Gauge("womd_history_series", "Live series tracked by the embedded history store.", float64(nSeries)),
		metrics.Gauge("womd_history_chunks", "Raw-tier chunks held in memory (sealed plus heads).", float64(nChunks)),
		metrics.Gauge("womd_history_chunk_bytes", "Compressed raw-tier bytes held in memory.", float64(nBytes)),
		metrics.Gauge("womd_history_agg_points", "Downsampled buckets held across aggregate tiers.", float64(nAgg)),
		metrics.Counter("womd_history_scrapes_total", "Self-scrape passes completed.", float64(scrapes)),
		metrics.Counter("womd_history_scrape_errors_total", "Self-scrape passes that failed.", float64(errs)),
		metrics.Counter("womd_history_samples_total", "Samples ingested.", float64(samples)),
		metrics.Gauge("womd_history_alert_transitions", "Alert lifecycle events held in history.", float64(transitions)),
	}
}
