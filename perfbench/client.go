package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"
)

// The benchmark's own loopback client. It speaks the daemon's minimal
// HTTP/1.1 (persistent, pipelined, no request bodies), keeps every
// round-trip time exactly, and in open loop times each request from when it
// was due, not from when it was sent, so a stall anywhere shows up in the
// latency of every request it delayed.

var request = []byte("GET /req HTTP/1.1\r\nHost: perfbench\r\n\r\n")

// respReader splits a connection's byte stream into responses and counts
// them by status. Bytes of an incomplete response wait for the next read.
type respReader struct {
	buf  []byte
	ok   uint64 // 204 responses
	bad  uint64 // any other status
	skip int    // body bytes of a non-204 response still to discard
}

var (
	crlf2         = []byte("\r\n\r\n")
	contentLength = []byte("\r\nContent-Length: ")
)

// feed consumes data and returns how many responses it completed.
func (r *respReader) feed(data []byte) (int, error) {
	r.buf = append(r.buf, data...)
	n, off := 0, 0
	for {
		if r.skip > 0 {
			k := min(r.skip, len(r.buf)-off)
			r.skip -= k
			off += k
			if r.skip > 0 {
				break
			}
		}
		i := bytes.Index(r.buf[off:], crlf2)
		if i < 0 {
			break
		}
		head := r.buf[off : off+i]
		off += i + len(crlf2)
		n++
		if len(head) < 12 || !bytes.HasPrefix(head, []byte("HTTP/1.1 ")) {
			return n, fmt.Errorf("malformed response %q", head)
		}
		if string(head[9:12]) == "204" {
			r.ok++
			continue
		}
		r.bad++
		if j := bytes.Index(head, contentLength); j >= 0 {
			v := head[j+len(contentLength):]
			if e := bytes.IndexByte(v, '\r'); e >= 0 {
				v = v[:e]
			}
			cl, err := strconv.Atoi(string(v))
			if err != nil {
				return n, fmt.Errorf("bad Content-Length %q", v)
			}
			r.skip = cl
		}
	}
	r.buf = append(r.buf[:0], r.buf[off:]...)
	return n, nil
}

// connStats is one connection's outcome.
type connStats struct {
	sent, ok, bad uint64
	err           error
	rttMS         []float64 // open loop: receive time minus due time
	lateMS        []float64 // open loop: send time minus due time
}

// closedLoop keeps window requests in flight on c until the deadline, then
// waits for the outstanding replies.
func closedLoop(c net.Conn, window int, until time.Time) connStats {
	var st connStats
	var rd respReader
	burst := bytes.Repeat(request, window)
	buf := make([]byte, 64<<10)
	if _, st.err = c.Write(burst); st.err != nil {
		return st
	}
	st.sent = uint64(window)
	c.SetReadDeadline(until.Add(5 * time.Second))
	for st.ok+st.bad < st.sent {
		n, err := c.Read(buf)
		got, perr := rd.feed(buf[:n])
		st.ok, st.bad = rd.ok, rd.bad
		if err != nil || perr != nil {
			st.err = errors.Join(err, perr)
			return st
		}
		if got > 0 && time.Now().Before(until) {
			if _, st.err = c.Write(burst[:got*len(request)]); st.err != nil {
				return st
			}
			st.sent += uint64(got)
		}
	}
	return st
}

// schedule is an open-loop send schedule: request i is due at
// start + i·interval, for i < total.
type schedule struct {
	start    time.Time
	interval time.Duration
	total    int
	next     int // first request not yet sent
}

func (s *schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// take marks every request due by now as sent at now. It returns how many
// that is and appends each one's lateness (ms) to lateMS.
func (s *schedule) take(now time.Time, lateMS []float64) (int, []float64) {
	n := 0
	for ; s.next < s.total && !s.due(s.next).After(now); s.next++ {
		lateMS = append(lateMS, float64(now.Sub(s.due(s.next)))/1e6)
		n++
	}
	return n, lateMS
}

// openLoop sends on s regardless of replies. The daemon answers pipelined
// requests in order, so the k-th reply belongs to request k and its
// round-trip time runs from that request's due time. It stops drain after
// the last due time, leaving the rest unanswered.
func openLoop(c net.Conn, s *schedule, drain time.Duration) connStats {
	// Every per-request slice is sized up front, so the client makes no
	// garbage while the daemon is measured.
	st := connStats{rttMS: make([]float64, 0, s.total), lateMS: make([]float64, 0, s.total)}
	var rd respReader
	answered := 0
	buf := make([]byte, 64<<10)
	out := make([]byte, 0, 64<<10)
	end := s.due(s.total).Add(drain)
	for {
		now := time.Now()
		var n int
		n, st.lateMS = s.take(now, st.lateMS)
		if n > 0 {
			out = out[:0]
			for i := 0; i < n; i++ {
				out = append(out, request...)
			}
			if _, st.err = c.Write(out); st.err != nil {
				return st
			}
			st.sent += uint64(n)
		}
		if s.next == s.total && answered == s.next {
			return st
		}
		if !now.Before(end) {
			return st // the rest stays unanswered
		}
		deadline := end
		if s.next < s.total {
			deadline = s.due(s.next)
		}
		c.SetReadDeadline(deadline)
		k, err := c.Read(buf)
		recv := time.Now()
		got, perr := rd.feed(buf[:k])
		for i := 0; i < got && answered < s.next; i++ {
			st.rttMS = append(st.rttMS, float64(recv.Sub(s.due(answered)))/1e6)
			answered++
		}
		st.ok, st.bad = rd.ok, rd.bad
		if perr != nil {
			st.err = perr
			return st
		}
		if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			st.err = err
			return st
		}
	}
}
