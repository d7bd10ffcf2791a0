package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"indep"
)

// newConn returns a client that holds at most one connection: each closed or
// open loop of the benchmark owns one, so a run never uses more than the two
// connections it declares.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// reply is one finished request.
type reply struct {
	status int
	body   []byte
	err    error
}

func do(c *http.Client, method, url string, body []byte, hdr map[string]string) reply {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b, err: err}
}

// ---- spans -------------------------------------------------------------

// span is one client-side interval of a traced run: name, start and end
// (nanoseconds from the run's epoch), parent span, and the request's trace
// ID, which the daemon also receives in X-Indep-Trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog holds a run's spans in memory until the run ends. A nil log
// records nothing, which is how untraced runs skip it.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	next  int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(parent int, trace, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.spans = append(l.spans, span{ID: l.next, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()})
	return l.next
}

// setEnd closes a span opened with its end equal to its start.
func (l *spanLog) setEnd(id int, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = end.Sub(l.epoch).Nanoseconds()
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tracedDo issues a request under a fresh trace ID, recording a root span
// for the request, a child for the round trip up to the response headers,
// and a child for reading the body.
func tracedDo(l *spanLog, root string, c *http.Client, method, url string, body []byte, hdr map[string]string) reply {
	if l == nil {
		return do(c, method, url, body, hdr)
	}
	trace := indep.NewTraceID()
	t0 := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	req.Header.Set("X-Indep-Trace", trace)
	resp, err := c.Do(req)
	t1 := time.Now()
	if err != nil {
		return reply{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	id := l.add(0, trace, root, t0, t2)
	l.add(id, trace, "client.roundtrip", t0, t1)
	l.add(id, trace, "client.read_body", t1, t2)
	return reply{status: resp.StatusCode, body: b, err: err}
}

// ---- loops -------------------------------------------------------------

// sample is one request's outcome as the loops record it.
type sample struct {
	latency time.Duration // closed loop: send to response; open loop: due time to response
	late    time.Duration // open loop: how late the request was sent
	end     time.Time     // when the response arrived
	ok      bool
	tuples  int // accepted tuples the response acknowledged
}

// closedLoop sends items[0], items[1], ... back to back until the deadline
// or the queue runs out; send reports whether the answer was right and how
// many accepted tuples it acknowledged.
func closedLoop(deadline time.Time, n int, send func(i int) (bool, int)) (samples []sample, sent int) {
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		t := time.Now()
		ok, k := send(i)
		end := time.Now()
		samples = append(samples, sample{latency: end.Sub(t), end: end, ok: ok, tuples: k})
		sent++
	}
	return samples, sent
}

// openLoop sends request i at start + i*interval, or as soon as the
// previous one returns when running behind, until due times pass the end.
// Latency runs from the due time, so a stall is charged to every request
// it delays.
func openLoop(ctx context.Context, start time.Time, interval time.Duration, n int, end time.Time, send func(i int) (bool, int)) (samples []sample, sent int) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) || ctx.Err() != nil {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		ok, k := send(i)
		t := time.Now()
		samples = append(samples, sample{latency: t.Sub(due), late: late, end: t, ok: ok, tuples: k})
		sent++
	}
	return samples, sent
}

// ---- statistics --------------------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func msOf(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.latency) / 1e6
	}
	return out
}

// fmtNum renders a metric value with all its digits.
func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func fmtErr(r reply) string {
	if r.err != nil {
		return r.err.Error()
	}
	b := r.body
	if len(b) > 200 {
		b = b[:200]
	}
	return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(b))
}
