package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryAfterDuration: both header forms the spec allows must parse —
// the delta-seconds the service emits and the HTTP-date form — and
// anything else must report ok=false so callers fall back to their own
// backoff.
func TestRetryAfterDuration(t *testing.T) {
	cases := []struct {
		header string
		want   time.Duration
		ok     bool
	}{
		{"3", 3 * time.Second, true},
		{" 10 ", 10 * time.Second, true},
		{"0", 0, true},
		{"-1", 0, false},
		{"", 0, false},
		{"soon", 0, false},
		{"2029-01-01", 0, false}, // not an HTTP-date format
		{time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat), 0, true}, // past date: wait 0
	}
	for _, c := range cases {
		se := &StatusError{Code: 429, RetryAfter: c.header}
		d, ok := se.RetryAfterDuration()
		if ok != c.ok || d != c.want {
			t.Errorf("RetryAfterDuration(%q) = (%v, %v), want (%v, %v)", c.header, d, ok, c.want, c.ok)
		}
	}

	// Future HTTP-date: the wait is the remaining time, within slack.
	se := &StatusError{Code: 429, RetryAfter: time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)}
	d, ok := se.RetryAfterDuration()
	if !ok || d < 59*time.Minute || d > time.Hour {
		t.Errorf("future HTTP-date: got (%v, %v), want about an hour", d, ok)
	}
}

// scriptedServer answers each request with the next scripted status; a
// 200 carries a minimal valid done-response. Requests beyond the script
// repeat the last entry.
func scriptedServer(t *testing.T, calls *atomic.Int64, script ...int) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(calls.Add(1)) - 1
		if i >= len(script) {
			i = len(script) - 1
		}
		switch code := script[i]; code {
		case http.StatusOK:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"v":1,"state":"done","result":{"verdict":"safe"}}`)
		default:
			w.WriteHeader(code)
			fmt.Fprintln(w, `{"error":"scripted rejection"}`)
		}
	}))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

// TestRetryTemporaryRejections: 429 and 503 retry with doubling backoff
// until the server relents; the check request that eventually lands must
// succeed transparently.
func TestRetryTemporaryRejections(t *testing.T) {
	var calls atomic.Int64
	cl := scriptedServer(t, &calls, 429, 503, 200)
	resp, err := cl.Do(context.Background(), CheckRequest{Source: safeSrc},
		WithRetry(3), WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatalf("Do with retries: %v", err)
	}
	if resp.State != StateDone {
		t.Fatalf("state = %s, want done", resp.State)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want 3 (429, 503, 200)", n)
	}
}

// TestRetryHonorsRetryAfter: with the header present the client sleeps
// what the server asked, not its own backoff.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"busy"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"v":1,"state":"done","result":{"verdict":"safe"}}`)
	}))
	t.Cleanup(ts.Close)
	start := time.Now()
	_, err := cl(ts).Do(context.Background(), CheckRequest{Source: safeSrc},
		WithRetry(1), WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retried after %v; Retry-After: 1 must impose a 1s wait", elapsed)
	}
}

func cl(ts *httptest.Server) *Client { return NewClient(ts.URL) }

// TestRetryGivesUp: the retry budget bounds the attempts, and the final
// error is the typed rejection with its Retry-After attached.
func TestRetryGivesUp(t *testing.T) {
	var calls atomic.Int64
	client := scriptedServer(t, &calls, 429)
	_, err := client.Do(context.Background(), CheckRequest{Source: safeSrc},
		WithRetry(2), WithRetryBackoff(time.Millisecond))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("got %v, want a 429 StatusError", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want 3 (initial + 2 retries)", n)
	}
}

// TestNoRetryOnRequestErrors: a 400 is a property of the request; no
// retry budget may touch it.
func TestNoRetryOnRequestErrors(t *testing.T) {
	var calls atomic.Int64
	client := scriptedServer(t, &calls, 400)
	_, err := client.Do(context.Background(), CheckRequest{Source: safeSrc},
		WithRetry(5), WithRetryBackoff(time.Millisecond))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("got %v, want a 400 StatusError", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d requests, want exactly 1", n)
	}
}

// TestRetryRespectsContext: a canceled context cuts the backoff sleep
// short instead of serving it out.
func TestRetryRespectsContext(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":"busy"}`)
	}))
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl(ts).Do(ctx, CheckRequest{Source: safeSrc}, WithRetry(3))
	if err == nil {
		t.Fatal("Do must fail when the context expires mid-backoff")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Do slept %v into a 30s Retry-After despite a 50ms context", elapsed)
	}
}

// batchServer streams the given raw lines as a /v1/batch response and
// then ends the body the way the script says: cleanly, or cut mid-line.
func batchServer(t *testing.T, lines []string, abort bool) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		f := w.(http.Flusher)
		for _, line := range lines {
			fmt.Fprint(w, line)
			f.Flush()
		}
		if abort {
			panic(http.ErrAbortHandler) // cut the connection mid-stream
		}
	}))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

// TestBatchStreamCleanEOF: a complete stream yields every item and then
// a clean io.EOF — the signal that the batch finished.
func TestBatchStreamCleanEOF(t *testing.T) {
	client := batchServer(t, []string{
		`{"v":1,"index":0,"state":"done","result":{"verdict":"safe"}}` + "\n",
		`{"v":1,"index":1,"state":"done","result":{"verdict":"error"}}` + "\n",
	}, false)
	stream, err := client.Batch(context.Background(), BatchRequest{Jobs: []BatchJob{{Source: safeSrc}}})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for want := 0; want < 2; want++ {
		item, err := stream.Next()
		if err != nil {
			t.Fatalf("item %d: %v", want, err)
		}
		if item.Index != want {
			t.Fatalf("item order: got %d, want %d", item.Index, want)
		}
	}
	if _, err := stream.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last item: got %v, want io.EOF", err)
	}
}

// TestBatchStreamTruncated: a JSON line cut short must surface as a
// decode error, never as a silent io.EOF — callers must be able to tell
// "finished" from "the coordinator died mid-batch".
func TestBatchStreamTruncated(t *testing.T) {
	client := batchServer(t, []string{
		`{"v":1,"index":0,"state":"done","result":{"verdict":"safe"}}` + "\n",
		`{"v":1,"index":1,"sta`, // cut mid-token, then clean close
	}, false)
	stream, err := client.Batch(context.Background(), BatchRequest{Jobs: []BatchJob{{Source: safeSrc}}})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := stream.Next(); err != nil {
		t.Fatalf("first item: %v", err)
	}
	_, err = stream.Next()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated line: got %v, want a decode error distinct from io.EOF", err)
	}
	if !strings.Contains(err.Error(), "decoding batch stream") {
		t.Fatalf("truncated line: error %q does not identify the stream decode", err)
	}
}

// TestBatchStreamConnectionCut: the connection dying mid-stream is also
// a truncation, not an EOF.
func TestBatchStreamConnectionCut(t *testing.T) {
	client := batchServer(t, []string{
		`{"v":1,"index":0,"state":"done","result":{"verdict":"safe"}}` + "\n",
	}, true)
	stream, err := client.Batch(context.Background(), BatchRequest{Jobs: []BatchJob{{Source: safeSrc}}})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := stream.Next(); err != nil {
		t.Fatalf("first item: %v", err)
	}
	_, err = stream.Next()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("cut connection: got %v, want a decode error distinct from io.EOF", err)
	}
}

// TestBatchStreamVersionCheck: an item with the wrong envelope version
// is refused before any field of it is trusted.
func TestBatchStreamVersionCheck(t *testing.T) {
	client := batchServer(t, []string{
		`{"v":99,"index":0,"state":"done","result":{"verdict":"safe"}}` + "\n",
	}, false)
	stream, err := client.Batch(context.Background(), BatchRequest{Jobs: []BatchJob{{Source: safeSrc}}})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := stream.Next(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong-version item: got %v, want a version error", err)
	}
}

// oldSummaryStats is a result "stats" object as builds that still had
// call summaries rendered it: a "summary" record beside "memo".
const oldSummaryStats = `"stats":{"states":12,"steps":30,` +
	`"memo":{"hits":1,"misses":2,"hit_ratio":0.33,"stores":2,"evictions":0,"steps_saved":5,"entries":2,"bytes":100},` +
	`"summary":{"hits":3,"misses":1,"hit_ratio":0.75,"stores":1,"evictions":0,"steps_saved":40,"composed":0,"max_depth":1,"entries":1,"bytes":200}}`

// oldMemoStats is a result "stats" object as builds that still had the
// fold memo rendered it: a "memo" record and no "summary".
const oldMemoStats = `"stats":{"states":12,"steps":30,` +
	`"memo":{"hits":1,"misses":2,"hit_ratio":0.33,"stores":2,"evictions":0,"steps_saved":5,"entries":2,"bytes":100,"audit_mismatches":0}}`

// oldMergeStats is a result "stats" object as builds that still
// pre-merged spilled runs rendered it: a "merge_passes" count in the
// memory record.
const oldMergeStats = `"stats":{"states":12,"steps":30,` +
	`"memory":{"visited_mode":"compact","spill_budget_bytes":524288,"spilled_bytes":9000,` +
	`"spilled_frames":40,"spilled_runs":20,"merge_passes":1,"frontier_peak_ram":600000}}`

// decodesOldStats serves a CheckResponse and a BatchItem whose result
// carries stats from an older daemon, and requires both to decode
// through the client with the fields this build knows intact.
func decodesOldStats(t *testing.T, stats string) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/v1/batch" {
			fmt.Fprintln(w, `{"v":1,"index":0,"state":"done","result":{"verdict":"safe",`+stats+`}}`)
			return
		}
		fmt.Fprintln(w, `{"v":1,"state":"done","result":{"verdict":"safe",`+stats+`}}`)
	}))
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)

	resp, err := client.Check(context.Background(), safeSrc, nil, 0)
	if err != nil {
		t.Fatalf("check response with old stats: %v", err)
	}
	if resp.Result == nil || resp.Result.Stats.States != 12 || resp.Result.Stats.Steps != 30 {
		t.Fatalf("check response decoded wrongly: %+v", resp.Result)
	}

	stream, err := client.Batch(context.Background(), BatchRequest{Jobs: []BatchJob{{Source: safeSrc}}})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	item, err := stream.Next()
	if err != nil {
		t.Fatalf("batch item with old stats: %v", err)
	}
	if item.Result == nil || item.Result.Stats.Steps != 30 {
		t.Fatalf("batch item decoded wrongly: %+v", item.Result)
	}
}

// TestClientDecodesRetiredSummaryStats: a CheckResponse or BatchItem
// from an older daemon whose stats carry the retired "summary" record
// still decodes, with the fields this build knows intact.
func TestClientDecodesRetiredSummaryStats(t *testing.T) {
	decodesOldStats(t, oldSummaryStats)
}

// TestClientDecodesRetiredMemoStats: likewise for the retired fold-memo
// "memo" record.
func TestClientDecodesRetiredMemoStats(t *testing.T) {
	decodesOldStats(t, oldMemoStats)
}

// TestClientDecodesRetiredMergePasses: likewise for the retired
// "merge_passes" count of the memory record.
func TestClientDecodesRetiredMergePasses(t *testing.T) {
	decodesOldStats(t, oldMergeStats)
}
