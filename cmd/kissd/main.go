// Command kissd is the long-running checking service: the kiss.Check
// pipeline behind an HTTP API, with a bounded admission queue, a worker
// pool multiplexing checks under one core budget, a content-addressed
// result cache, and Prometheus metrics. The KISS reduction makes every
// checking problem an independent, deterministic (source, config) pair,
// so identical submissions — corpus re-runs, CI — are answered from the
// cache without exploring a single state.
//
// Endpoints (see internal/service):
//
//	POST /v1/check     submit {source, config, wait?, timeout_ms?}
//	GET  /v1/jobs/{id} poll an async submission
//	GET  /healthz      liveness + version + queue/cache counters
//	GET  /metrics      Prometheus text exposition
//
// A full queue answers 429 with Retry-After; SIGTERM/SIGINT drains:
// accepted jobs (queued and in-flight) run to completion, bounded by
// -drain-timeout, then the listener shuts down. kiss -server URL and
// kissbench -server URL are the matching clients.
//
// -smoke runs the self-contained acceptance loop used by `make
// serve-smoke`: serve on a loopback port, run a corpus slice through
// the daemon twice, require verdicts and counters identical to local
// checking and a >=90% warm-pass cache-hit rate; then re-run the slice
// under a shifted state budget, require every submission to miss the
// result cache and every verdict to match local checking; then drain
// cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/eval"
	"repro/internal/service"
)

// version is stamped by the Makefile via
// -ldflags "-X main.version=$(VERSION)"; "dev" for plain go build.
var version = "dev"

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	queueSize := flag.Int("queue", 64, "admission-queue capacity (a full queue rejects with 429 + Retry-After)")
	workers := flag.Int("workers", 0, "concurrent checks (0 = sized from the core count and -search-workers)")
	searchWorkers := flag.Int("search-workers", 0, "parallel search workers per check (0 = sequential; verdicts identical at every count)")
	cacheMB := flag.Int64("cache-mb", 64, "result-cache byte budget in MiB")
	memBudgetMB := flag.Int("mem-budget-mb", 0, "per-job search memory ceiling in MiB: jobs asking for more (or for no budget) are clamped; run one value fleet-wide behind a coordinator (0 = no ceiling)")
	timeout := flag.Duration("timeout", 0, "default per-job wall-time bound when the request sets no timeout_ms (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "bound on running accepted jobs to completion at shutdown")
	smoke := flag.Bool("smoke", false, "self-contained smoke test: serve on a loopback port, run a corpus slice twice through the daemon, require local-identical verdicts and a >=90% warm-pass cache-hit rate, drain, exit")
	smokeDrivers := flag.String("smoke-drivers", "kbfiltr,moufiltr", "comma-separated corpus slice checked by -smoke")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("kissd %s\n", version)
		return
	}

	cfg := service.Config{
		Version:        version,
		QueueSize:      *queueSize,
		Workers:        *workers,
		SearchWorkers:  *searchWorkers,
		CacheBytes:     *cacheMB << 20,
		DefaultTimeout: *timeout,
		MemBudgetMB:    *memBudgetMB,
	}
	var err error
	if *smoke {
		err = runSmoke(cfg, *smokeDrivers, *drainTimeout)
		if err == nil {
			fmt.Println("kissd smoke: ok")
		}
	} else {
		err = serve(cfg, *addr, *drainTimeout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "kissd: %v\n", err)
		os.Exit(1)
	}
}

// serve runs the daemon until SIGINT/SIGTERM, then drains the scheduler
// (accepted jobs finish, waiting clients get their results) before
// shutting the listener down. A second signal aborts immediately.
func serve(cfg service.Config, addr string, drainTimeout time.Duration) error {
	s := service.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	h := s.Health()
	fmt.Fprintf(os.Stderr, "kissd %s listening on %s (workers=%d search-workers=%d queue=%d cache=%dMiB)\n",
		cfg.Version, ln.Addr(), h.Workers, h.SearchWorkers, h.QueueCapacity, h.Cache.MaxBytes>>20)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default handling: a second signal kills outright
	fmt.Fprintln(os.Stderr, "kissd: signal received; draining")

	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "kissd: drain: %v\n", err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "kissd: drained")
	return nil
}

// runSmoke is the in-process acceptance loop: local baseline, cold
// service pass, warm service pass, cache-hit assertion, budget-shifted
// pass, clean drain.
func runSmoke(cfg service.Config, driverList string, drainTimeout time.Duration) error {
	sel := map[string]bool{}
	for _, d := range strings.Split(driverList, ",") {
		if d = strings.TrimSpace(d); d != "" {
			sel[d] = true
		}
	}

	local, err := eval.RunCorpus(eval.Options{Drivers: sel})
	if err != nil {
		return fmt.Errorf("local baseline: %w", err)
	}

	s := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "kissd smoke: serving on %s, drivers %s\n", url, driverList)

	cold, err := eval.RunCorpus(eval.Options{Drivers: sel, Server: url})
	if err != nil {
		return fmt.Errorf("cold pass: %w", err)
	}
	if err := compareCorpus(local, cold); err != nil {
		return fmt.Errorf("cold pass: %w", err)
	}
	h1 := s.Health()

	warm, err := eval.RunCorpus(eval.Options{Drivers: sel, Server: url})
	if err != nil {
		return fmt.Errorf("warm pass: %w", err)
	}
	if err := compareCorpus(local, warm); err != nil {
		return fmt.Errorf("warm pass: %w", err)
	}
	h2 := s.Health()

	fields := 0
	for _, dr := range warm {
		fields += len(dr.Fields)
	}
	if fields == 0 {
		return fmt.Errorf("corpus slice %q selected no fields", driverList)
	}
	hits := h2.Cache.Hits - h1.Cache.Hits
	if hits*10 < int64(fields)*9 {
		return fmt.Errorf("warm pass: %d of %d submissions served from cache (<90%%)", hits, fields)
	}
	fmt.Fprintf(os.Stderr, "kissd smoke: verdicts identical to local; warm pass %d/%d cache hits\n", hits, fields)

	// Third pass: the same corpus under a shifted state budget. The
	// canonical config changes, so every submission misses the result
	// cache and runs a real check whose verdict must still match local
	// checking.
	shifted, err := eval.RunCorpus(eval.Options{Drivers: sel, Server: url, MaxStates: eval.DefaultMaxStates + 1})
	if err != nil {
		return fmt.Errorf("budget pass: %w", err)
	}
	if err := compareVerdicts(local, shifted); err != nil {
		return fmt.Errorf("budget pass: %w", err)
	}
	h3 := s.Health()
	if d := h3.Cache.Hits - h2.Cache.Hits; d != 0 {
		return fmt.Errorf("budget pass: %d submissions served from the result cache; the shifted budget should miss it", d)
	}
	fmt.Fprintf(os.Stderr, "kissd smoke: budget-shifted pass missed the result cache; verdicts identical to local\n")

	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(sctx)
}

// compareVerdicts requires field-for-field verdict identity (verdict,
// message, failing position) but not counter identity: the budget pass
// runs under a shifted state bound, so budget-tripped fields legitimately
// report different stored-state counts while every verdict is unchanged.
func compareVerdicts(local, remote []*eval.DriverResult) error {
	if len(remote) != len(local) {
		return fmt.Errorf("driver rows: remote %d, local %d", len(remote), len(local))
	}
	for i := range local {
		if len(remote[i].Fields) != len(local[i].Fields) {
			return fmt.Errorf("%s: field rows: remote %d, local %d",
				local[i].Spec.Name, len(remote[i].Fields), len(local[i].Fields))
		}
		for j := range local[i].Fields {
			lf, rf := local[i].Fields[j], remote[i].Fields[j]
			if lf.Verdict != rf.Verdict || lf.Message != rf.Message || lf.Pos != rf.Pos {
				return fmt.Errorf("%s.%s: remote {%v %q %q}, local {%v %q %q}",
					lf.Driver, lf.Field, rf.Verdict, rf.Message, rf.Pos,
					lf.Verdict, lf.Message, lf.Pos)
			}
		}
	}
	return nil
}

// compareCorpus requires the service-backed corpus results to be
// field-for-field identical to the local baseline — verdicts, failure
// positions, and the deterministic search counters.
func compareCorpus(local, remote []*eval.DriverResult) error {
	if len(remote) != len(local) {
		return fmt.Errorf("driver rows: remote %d, local %d", len(remote), len(local))
	}
	for i := range local {
		if len(remote[i].Fields) != len(local[i].Fields) {
			return fmt.Errorf("%s: field rows: remote %d, local %d",
				local[i].Spec.Name, len(remote[i].Fields), len(local[i].Fields))
		}
		for j := range local[i].Fields {
			lf, rf := local[i].Fields[j], remote[i].Fields[j]
			if lf.Verdict != rf.Verdict || lf.States != rf.States || lf.Steps != rf.Steps ||
				lf.Message != rf.Message || lf.Pos != rf.Pos {
				return fmt.Errorf("%s.%s: remote {%v %d %d %q %q}, local {%v %d %d %q %q}",
					lf.Driver, lf.Field, rf.Verdict, rf.States, rf.Steps, rf.Message, rf.Pos,
					lf.Verdict, lf.States, lf.Steps, lf.Message, lf.Pos)
			}
		}
	}
	return nil
}
