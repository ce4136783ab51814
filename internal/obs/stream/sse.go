package stream

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Frame is one server-sent event on the wire:
//
//	id: 7
//	event: progress
//	data: {"done":3}
//	<blank line>
//
// Multi-line data encodes as one `data:` line per line; the decoder
// joins them back with "\n". A zero ID omits the id line (the client's
// Last-Event-ID cursor does not advance).
type Frame struct {
	ID    uint64
	Event string
	Data  []byte
}

// AppendFrame appends the SSE encoding of f to dst and returns the
// extended slice. CR, LF, and CRLF in Data all split data lines (they
// decode uniformly as "\n"); CR and LF are stripped from the event name
// since they cannot be framed.
func AppendFrame(dst []byte, f Frame) []byte {
	if f.ID != 0 {
		dst = append(dst, "id: "...)
		dst = strconv.AppendUint(dst, f.ID, 10)
		dst = append(dst, '\n')
	}
	if f.Event != "" {
		dst = append(dst, "event: "...)
		dst = appendEventName(dst, f.Event)
		dst = append(dst, '\n')
	}
	data := f.Data
	for {
		line, rest, more := cutLine(data)
		dst = append(dst, "data: "...)
		dst = append(dst, line...)
		dst = append(dst, '\n')
		if !more {
			break
		}
		data = rest
	}
	dst = append(dst, '\n')
	return dst
}

// EncodeFrame writes the SSE encoding of f to w.
func EncodeFrame(w io.Writer, f Frame) error {
	_, err := w.Write(AppendFrame(nil, f))
	return err
}

// WriteKeepalive writes an SSE comment; clients ignore it, idle proxies
// and peers see traffic.
func WriteKeepalive(w io.Writer) error {
	_, err := io.WriteString(w, ": keepalive\n\n")
	return err
}

// appendEventName appends name with CR and LF stripped — an event name
// cannot span lines.
func appendEventName(dst []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		if name[i] == '\n' || name[i] == '\r' {
			continue
		}
		dst = append(dst, name[i])
	}
	return dst
}

// cutLine splits b at the first line terminator (LF, CRLF, or lone CR).
// more reports whether a terminator was found (rest may be empty: a
// trailing terminator yields a final empty line).
func cutLine(b []byte) (line, rest []byte, more bool) {
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '\n':
			return b[:i], b[i+1:], true
		case '\r':
			if i+1 < len(b) && b[i+1] == '\n' {
				return b[:i], b[i+2:], true
			}
			return b[:i], b[i+1:], true
		}
	}
	return b, nil, false
}

// Decoder reads SSE frames back off a stream; it understands exactly
// the subset EncodeFrame emits plus comment lines, which it skips.
type Decoder struct {
	r *bufio.Reader
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

// Next returns the next frame. It returns io.EOF when the stream ends
// cleanly between frames, and io.ErrUnexpectedEOF when it ends inside
// one.
func (d *Decoder) Next() (Frame, error) {
	var f Frame
	var data []string
	pending := false
	for {
		line, err := d.r.ReadString('\n')
		if err != nil {
			if err == io.EOF && !pending && line == "" {
				return Frame{}, io.EOF
			}
			if err == io.EOF {
				return Frame{}, io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
		line = strings.TrimSuffix(line, "\n")
		line = strings.TrimSuffix(line, "\r")
		if line == "" {
			if !pending {
				continue // stray blank line between frames
			}
			if data != nil {
				f.Data = []byte(strings.Join(data, "\n"))
			}
			return f, nil
		}
		if strings.HasPrefix(line, ":") {
			continue // comment (keepalive)
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			f.ID, _ = strconv.ParseUint(value, 10, 64)
		case "event":
			f.Event = value
		case "data":
			data = append(data, value)
		default:
			continue // unknown field: ignore per SSE spec, not pending
		}
		pending = true
	}
}

// LastEventID extracts the client's resume cursor from the
// Last-Event-ID header (set by EventSource on reconnect) or, as a
// curl-friendly fallback, the last_event_id query parameter. ok is
// false when neither carries a valid decimal ID.
func LastEventID(r *http.Request) (id uint64, ok bool) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	if raw == "" {
		return 0, false
	}
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// keepalive is the SSE comment cadence that keeps idle connections
// alive through proxies (a var so tests can shorten it).
var keepalive = 15 * time.Second

// errNoFlusher reports a ResponseWriter that cannot stream.
var errNoFlusher = errors.New("stream: ResponseWriter does not implement http.Flusher")

// Serve writes topic's SSE feed from h. A non-nil final is written as
// the single terminal frame (event type last) — for a topic that has
// already finished, whose live events may have left the replay ring
// long ago. Otherwise Serve replays the retained events after the
// client's Last-Event-ID (all of them when it has none), then delivers
// live until an event of type last arrives or the client disconnects.
// Publish-side slowness policy applies: if this client stops reading,
// events drop (counted) rather than backing up the publisher; the
// client sees the loss as an event ID gap.
func Serve(w http.ResponseWriter, r *http.Request, h *Hub, topic, last string, final []byte) error {
	hdr := w.Header()
	hdr.Set("Content-Type", "text/event-stream")
	hdr.Set("Cache-Control", "no-cache")
	hdr.Set("X-Accel-Buffering", "no")
	if final != nil {
		return EncodeFrame(w, Frame{Event: last, Data: final})
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return errNoFlusher
	}
	w.WriteHeader(http.StatusOK)

	sub := h.Subscribe(topic, 0)
	defer sub.Close()

	sent, _ := LastEventID(r)
	for _, ev := range h.Replay(topic, sent) {
		if err := EncodeFrame(w, Frame{ID: ev.ID, Event: ev.Type, Data: ev.Data}); err != nil {
			return err
		}
		sent = ev.ID
		if ev.Type == last {
			fl.Flush()
			return nil
		}
	}
	fl.Flush()

	tick := time.NewTicker(keepalive)
	defer tick.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case ev := <-sub.Events():
			if ev.ID <= sent {
				continue // already sent during replay
			}
			sent = ev.ID
			if err := EncodeFrame(w, Frame{ID: ev.ID, Event: ev.Type, Data: ev.Data}); err != nil {
				return err
			}
			fl.Flush()
			if ev.Type == last {
				return nil
			}
		case <-tick.C:
			if err := WriteKeepalive(w); err != nil {
				return err
			}
			fl.Flush()
		}
	}
}
