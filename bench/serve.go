package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	sf "sparsefusion"
	"sparsefusion/internal/cache"
	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/lbc"
)

// serve-zipf: closed-loop clients against one Server and one ScheduleCache.
// The cache, the admission queue and the facade's hit path (DAG build and
// fingerprint before the lookup can hit) do most of the work; the executor
// runs sub-millisecond schedules.
const (
	srvPatterns = 16
	srvZipfS    = 1.1
	srvOpenFrac = 0.25
	srvRHSPool  = 4
	srvThreads  = 2   // Options.Threads of every operation, and the pool width
	srvWarmup   = 200 // requests per client discarded in set-up
)

// srvPattern is one pre-reordered pattern with its right-hand sides and the
// oracle's expected outputs.
type srvPattern struct {
	pattern
	combo sf.Combination
	rhs   [][]float64
	want  [][]float64
}

// srvInputs generates the pattern set: rank r (0 the most popular) alternates
// 2-D Laplacians of 80^2 to 136^2 rows with power-law matrices of 8 000 to
// 18 500, and TRSV-TRSV with TRSV-MV. Rank 0, a third of the requests, is a
// Laplacian so that the mix does not hinge on one random matrix.
func srvInputs(seed int64) ([]srvPattern, error) {
	ps := make([]srvPattern, srvPatterns)
	for r := range ps {
		var nat pattern
		if r%2 == 0 {
			nat = laplacian2D(80 + 8*(r/2))
		} else {
			nat = powerLaw(8000+1500*(r/2), 6, subSeed(seed, uint64(100+r)))
		}
		p, err := nat.reordered()
		if err != nil {
			return nil, err
		}
		sp := srvPattern{pattern: p, combo: sf.TrsvTrsv}
		if (r/2)%2 == 1 {
			sp.combo = sf.TrsvMv
		}
		for k := 0; k < srvRHSPool; k++ {
			b := rhsVector(p.csr.Rows, subSeed(seed, uint64(200+r*srvRHSPool+k)))
			w, _ := oracleExpected(sp.combo, p.csr, b)
			sp.rhs, sp.want = append(sp.rhs, b), append(sp.want, w)
		}
		ps[r] = sp
	}
	return ps, nil
}

// srvClient is one closed-loop client: its sessions, one per pattern, and
// its request stream.
type srvClient struct {
	id     int
	sess   []*sf.Session
	stream *requestStream
}

// srvState is one server with its cache and clients, cache-warm.
type srvState struct {
	ps      []srvPattern
	opts    sf.Options
	sc      *sf.ScheduleCache
	sv      *sf.Server
	clients []*srvClient
	events  *bytes.Buffer // the Tracer's sink in the traced pass
}

// srvSample is one served request.
type srvSample struct {
	open                      bool
	total, newSess, run, exec time.Duration
}

// srvSetup starts the cache and the server, makes the cold first pass over
// the patterns (every inspection happens here), opens every client's
// sessions and replays a warm-up sequence. With traced set, the library's own
// Tracer is attached everywhere it can be.
func srvSetup(e *env, ps []srvPattern, traced bool) (*srvState, error) {
	st := &srvState{ps: ps, opts: sf.Options{Threads: srvThreads}}
	var tr *sf.Tracer
	if traced {
		st.events = &bytes.Buffer{}
		tr = sf.NewTracer(st.events)
		st.opts.Tracer = tr
	}
	st.sc = sf.NewScheduleCache(sf.CacheConfig{MaxEntries: 4 * srvPatterns, Tracer: tr})
	st.opts.Cache = st.sc
	st.sv = sf.NewServer(sf.ServerConfig{MaxConcurrent: max(1, e.threads/2), Width: srvThreads, Cache: st.sc, Tracer: tr})
	for c := 0; c < e.threads; c++ {
		st.clients = append(st.clients, &srvClient{
			id: c, sess: make([]*sf.Session, len(ps)),
			stream: newRequestStream(e.seed, c, len(ps), srvRHSPool, srvZipfS, srvOpenFrac),
		})
	}
	for p := range ps {
		for _, c := range st.clients {
			if _, err := st.do(c, request{pattern: p, open: true}, nil, 0); err != nil {
				st.sv.Close()
				return nil, err
			}
		}
	}
	warm := make([]*requestStream, len(st.clients))
	for c := range warm {
		warm[c] = newRequestStream(subSeed(e.seed, 7), c, len(ps), srvRHSPool, srvZipfS, srvOpenFrac)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(st.clients))
	for i, c := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < srvWarmup && errs[i] == nil; k++ {
				_, errs[i] = st.do(c, warm[i].next(), nil, 0)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			st.sv.Close()
			return nil, err
		}
	}
	return st, nil
}

// do serves one request for client c and verifies its output against the
// oracle's. The spans (traced pass only) are the facade calls of the request.
func (st *srvState) do(c *srvClient, rq request, tr *tracer, id int) (srvSample, error) {
	p := &st.ps[rq.pattern]
	s := srvSample{open: rq.open}
	root := tr.begin("serve.request", -1, c.id, id)
	t0 := time.Now()
	sess := c.sess[rq.pattern]
	if rq.open {
		sp := tr.begin("facade.new_operation", root, c.id, id)
		op, err := sf.NewOperation(p.combo, p.m, st.opts)
		tr.end(sp)
		if err != nil {
			return s, err
		}
		sp = tr.begin("serve.session_new", root, c.id, id)
		t1 := time.Now()
		sess, err = op.NewSession()
		s.newSess = time.Since(t1)
		tr.end(sp)
		if err != nil {
			return s, err
		}
		c.sess[rq.pattern] = sess
	}
	if err := sess.SetInput(p.rhs[rq.rhs]); err != nil {
		return s, err
	}
	sp := tr.begin("serve.run_on", root, c.id, id)
	t1 := time.Now()
	rep, err := sess.RunOn(st.sv)
	s.run = time.Since(t1)
	tr.end(sp)
	s.total = time.Since(t0)
	tr.end(root)
	if err != nil {
		return s, err
	}
	s.exec = rep.Time
	if h := sess.Health(); h.Mode != sf.ModePacked || len(h.Demotions) != 0 {
		return s, fmt.Errorf("%s: session on %s with %d demotions", p.name, h.Mode, len(h.Demotions))
	}
	return s, checkVector(p.name+" "+p.combo.String(), sess.Output(), p.want[rq.rhs])
}

// srvWindow is what one timed window of traffic produced.
type srvWindow struct {
	samples           []srvSample
	attempted, failed int
	wall              time.Duration
	cache             sf.CacheStats  // counters over the window
	serve             sf.ServerStats // counters over the window
}

// window lets every client replay its stream for seconds.
func (st *srvState) window(seconds float64, tr *tracer) srvWindow {
	cs0, ss0 := st.sc.Stats(), st.sv.Stats()
	per := make([]srvWindow, len(st.clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i, c := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &per[i]
			for k := 0; time.Now().Before(deadline); k++ {
				s, err := st.do(c, c.stream.next(), tr, k)
				w.attempted++
				if err != nil {
					w.failed++
					if w.failed <= 3 {
						fmt.Fprintln(os.Stderr, "bench: request failed:", err)
					}
					continue
				}
				w.samples = append(w.samples, s)
			}
		}()
	}
	wg.Wait()
	out := srvWindow{wall: time.Since(start)}
	for _, w := range per {
		out.samples = append(out.samples, w.samples...)
		out.attempted += w.attempted
		out.failed += w.failed
	}
	cs1, ss1 := st.sc.Stats(), st.sv.Stats()
	out.cache = sf.CacheStats{Hits: cs1.Hits - cs0.Hits, Misses: cs1.Misses - cs0.Misses, Waits: cs1.Waits - cs0.Waits, Evictions: cs1.Evictions - cs0.Evictions}
	out.serve = sf.ServerStats{Admitted: ss1.Admitted - ss0.Admitted, Queued: ss1.Queued - ss0.Queued, Shed: ss1.Shed - ss0.Shed}
	return out
}

// guards rejects a window that was not cache-warm or that shed load.
func (w srvWindow) guards() error {
	if err := guard(w.cache.HitRate() >= 0.99, "serve-zipf: cache hit ratio %.4f < 0.99 in the timed window (%+v)", w.cache.HitRate(), w.cache); err != nil {
		return err
	}
	return guard(w.serve.Shed == 0, "serve-zipf: %d requests shed", w.serve.Shed)
}

func (w srvWindow) totalsMS(keep func(srvSample) bool, pick func(srvSample) time.Duration) []float64 {
	var out []float64
	for _, s := range w.samples {
		if keep(s) {
			out = append(out, ms(pick(s)))
		}
	}
	return out
}

func anySample(srvSample) bool             { return true }
func total(s srvSample) time.Duration      { return s.total }
func isOpen(s srvSample) bool              { return s.open }
func isResolve(s srvSample) bool           { return !s.open }
func queueWait(s srvSample) time.Duration  { return s.run - s.exec }
func execTime(s srvSample) time.Duration   { return s.exec }
func sessionNew(s srvSample) time.Duration { return s.newSess }

func runServeZipf(e *env) error {
	ps, err := srvInputs(e.seed)
	if err != nil {
		return err
	}
	if e.tr != nil {
		return traceServeZipf(e, ps)
	}
	st, setupS, err := timeSetups(setupRepsShort,
		func() (*srvState, error) { return srvSetup(e, ps, false) },
		func(old *srvState) { old.sv.Close() })
	if err != nil {
		return err
	}
	defer st.sv.Close()
	e.res.set("setup_s", setupS)
	e.res.set("heap_mb", heapMB())

	w := st.window(e.seconds, nil)
	e.res.Attempted, e.res.Failed = w.attempted, w.failed
	if err := w.guards(); err != nil {
		return err
	}
	e.setUnitMetrics(w.totalsMS(anySample, total), w.wall)
	e.res.note("%d clients, %d open and %d resolve requests, cache hit ratio %.4f, %d of %d admissions queued",
		len(st.clients), len(w.totalsMS(isOpen, total)), len(w.totalsMS(isResolve, total)), w.cache.HitRate(), w.serve.Queued, w.serve.Admitted)
	return st.ratios(e)
}

// ratios measures, per pattern, the fused session run against the unfused
// and the sequential implementation of the same combination (no server, no
// cache) and reports their geometric means weighted by the patterns' request
// shares.
func (st *srvState) ratios(e *env) error {
	const runs = 21
	weights := zipfWeights(len(st.ps), srvZipfS)
	var vsUnf, vsSeq []float64
	for i := range st.ps {
		p := &st.ps[i]
		base, err := newBases(p.combo, p.csr, srvThreads)
		if err != nil {
			return err
		}
		if err := base.verify(p.rhs[0], p.want[0]); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		sess := st.clients[0].sess[i]
		var f, u, s []float64
		for k := 0; k < runs; k++ {
			t0 := time.Now()
			if _, err := sess.Run(); err != nil {
				return err
			}
			f = append(f, ms(time.Since(t0)))
			um, err := base.unfusedMS()
			if err != nil {
				return err
			}
			sm, err := base.seqMS()
			if err != nil {
				return err
			}
			u, s = append(u, um), append(s, sm)
		}
		vsUnf = append(vsUnf, median(u)/median(f))
		vsSeq = append(vsSeq, median(s)/median(f))
	}
	e.res.set("fused_vs_unfused", weightedGeomean(vsUnf, weights))
	e.res.set("fused_vs_seq", weightedGeomean(vsSeq, weights))
	e.res.note("ratios are Zipf-weighted geometric means over %d patterns of median base run / median Session.Run, %d runs each, outside the server", len(st.ps), runs)
	return nil
}

// traceServeZipf is the traced pass: half of the window with tracing off,
// half with the library's Tracer attached and spans around every facade call
// of every request; then the cache layer called directly.
func traceServeZipf(e *env, ps []srvPattern) error {
	tr, r := e.tr, e.res
	plainSt, err := srvSetup(e, ps, false)
	if err != nil {
		return err
	}
	plain := plainSt.window(e.seconds/2, nil)
	plainSt.sv.Close()
	e.setUnitMetrics(plain.totalsMS(anySample, total), plain.wall)

	st, err := srvSetup(e, ps, true)
	if err != nil {
		return err
	}
	defer st.sv.Close()
	mem := markMem()
	w := st.window(e.seconds/2, tr)
	mem.report(r, len(w.samples))
	r.Attempted, r.Failed = w.attempted+plain.attempted, w.failed+plain.failed
	if err := w.guards(); err != nil {
		return err
	}
	all := w.totalsMS(anySample, total)
	r.set("serve.open_ms_p50", median(w.totalsMS(isOpen, total)))
	r.set("serve.resolve_ms_p50", median(w.totalsMS(isResolve, total)))
	r.set("serve.session_new_ms_p50", median(w.totalsMS(isOpen, sessionNew)))
	r.set("serve.exec_ms_p50", median(w.totalsMS(anySample, execTime)))
	r.set("serve.queue_wait_ms_p50", median(w.totalsMS(anySample, queueWait)))
	r.set("serve.latency_ms_p99", percentile(all, 0.99))
	r.set("serve.admitted", float64(w.serve.Admitted))
	r.set("serve.queued", float64(w.serve.Queued))
	r.set("serve.shed", float64(w.serve.Shed))
	r.set("cache.hits", float64(w.cache.Hits))
	r.set("cache.misses", float64(w.cache.Misses))
	r.set("cache.waits", float64(w.cache.Waits))
	r.set("cache.evictions", float64(w.cache.Evictions))
	r.set("cache.hit_ratio", w.cache.HitRate())
	plainP50 := median(plain.totalsMS(anySample, total))
	r.set("trace.overhead_pct", 100*(median(all)-plainP50)/plainP50)
	r.note("traced window: %d requests, p50 %.4g ms, %d B of library trace events; untraced window: %d requests, p50 %.4g ms",
		len(all), median(all), st.events.Len(), len(plain.samples), plainP50)

	// What an open pays before its lookup can hit, and the hit itself, from
	// the layers' own functions.
	d := lbc.DefaultParams()
	direct := cache.New(cache.Config{MaxEntries: 4 * srvPatterns})
	hit := cache.Builder{
		Inspect:  func() (*core.Schedule, error) { return &core.Schedule{}, nil },
		Complete: func(s *core.Schedule) (cache.Artifacts, error) { return cache.Artifacts{Schedule: s}, nil },
	}
	for i := range ps {
		p := &ps[i]
		id := tr.begin("cache.fingerprint", -1, 0, i)
		key := cache.Fingerprint(p.csr, cache.Params{Combo: int(p.combo), Threads: srvThreads, LBCInitialCut: d.InitialCut, LBCAgg: d.Agg})
		tr.end(id)
		if _, err := tracedBuild(tr, -1, 0, i, combos.ID(p.combo), p.csr); err != nil {
			return err
		}
		if _, err := direct.GetOrBuild(key, hit); err != nil {
			return err
		}
		for k := 0; k < 100; k++ {
			id := tr.begin("cache.lookup_hit", -1, 0, i)
			_, err := direct.GetOrBuild(key, hit)
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	r.set("cache.fingerprint_ms", tr.meanMS("cache.fingerprint"))
	r.set("cache.lookup_hit_ms", tr.meanMS("cache.lookup_hit"))
	r.set("combos.build_ms", tr.meanMS("combos.build"))
	return nil
}
