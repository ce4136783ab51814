package stream

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestEncodeFrameGolden(t *testing.T) {
	cases := []struct {
		name string
		f    Frame
		want string
	}{
		{
			name: "full frame",
			f:    Frame{ID: 7, Event: "progress", Data: []byte(`{"done":3}`)},
			want: "id: 7\nevent: progress\ndata: {\"done\":3}\n\n",
		},
		{
			name: "multi-line data",
			f:    Frame{ID: 8, Event: "log", Data: []byte("line one\nline two")},
			want: "id: 8\nevent: log\ndata: line one\ndata: line two\n\n",
		},
		{
			name: "zero id and empty event omitted",
			f:    Frame{Data: []byte("x")},
			want: "data: x\n\n",
		},
		{
			name: "empty data still framed",
			f:    Frame{ID: 9, Event: "done", Data: nil},
			want: "id: 9\nevent: done\ndata: \n\n",
		},
		{
			name: "cr and crlf split like lf",
			f:    Frame{Data: []byte("a\rb\r\nc")},
			want: "data: a\ndata: b\ndata: c\n\n",
		},
		{
			name: "trailing newline yields empty final line",
			f:    Frame{Data: []byte("a\n")},
			want: "data: a\ndata: \n\n",
		},
		{
			name: "newlines stripped from event name",
			f:    Frame{Event: "do\ne", Data: []byte("x")},
			want: "event: doe\ndata: x\n\n",
		},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, tc.f); err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if buf.String() != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, buf.String(), tc.want)
		}
	}
}

func TestDecoderStream(t *testing.T) {
	wire := "" +
		": keepalive\n\n" +
		"id: 1\nevent: progress\ndata: {\"done\":1}\n\n" +
		"data: a\ndata: b\n\n" +
		": keepalive\n\n" +
		"id: 3\nevent: done\ndata: \n\n"
	d := NewDecoder(strings.NewReader(wire))

	f1, err := d.Next()
	if err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	if f1.ID != 1 || f1.Event != "progress" || string(f1.Data) != `{"done":1}` {
		t.Fatalf("frame 1 = %+v", f1)
	}
	f2, err := d.Next()
	if err != nil {
		t.Fatalf("frame 2: %v", err)
	}
	if f2.ID != 0 || f2.Event != "" || string(f2.Data) != "a\nb" {
		t.Fatalf("frame 2 = %+v", f2)
	}
	f3, err := d.Next()
	if err != nil {
		t.Fatalf("frame 3: %v", err)
	}
	if f3.ID != 3 || f3.Event != "done" || string(f3.Data) != "" {
		t.Fatalf("frame 3 = %+v", f3)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("after last frame err = %v, want io.EOF", err)
	}
}

func TestDecoderTruncatedFrame(t *testing.T) {
	d := NewDecoder(strings.NewReader("id: 1\ndata: partial\n"))
	if _, err := d.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestLastEventID(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/stream", nil)
	if _, ok := LastEventID(r); ok {
		t.Fatal("bare request should have no cursor")
	}
	r.Header.Set("Last-Event-ID", "41")
	id, ok := LastEventID(r)
	if !ok || id != 41 {
		t.Fatalf("header cursor = (%d, %v), want (41, true)", id, ok)
	}
	r2 := httptest.NewRequest(http.MethodGet, "/stream?last_event_id=9", nil)
	id, ok = LastEventID(r2)
	if !ok || id != 9 {
		t.Fatalf("query cursor = (%d, %v), want (9, true)", id, ok)
	}
	r2.Header.Set("Last-Event-ID", "bogus")
	if _, ok := LastEventID(r2); ok {
		t.Fatal("invalid header cursor should not parse")
	}
}

// TestServeResumeAndDone drives Serve end to end: a client resuming
// with Last-Event-ID must see exactly the missed events plus the final
// one, whose type ends the stream; a client on a fresh topic gets live
// delivery. The handler serves the topic named by the URL path.
func TestServeResumeAndDone(t *testing.T) {
	h := NewHub(64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = Serve(w, r, h, strings.TrimPrefix(r.URL.Path, "/"), "done", nil)
	}))
	defer srv.Close()

	h.Publish("c1", "progress", []byte("1"))
	h.Publish("c1", "progress", []byte("2"))
	h.Publish("c1", "progress", []byte("3"))
	h.Publish("other", "noise", nil)
	h.Publish("c1", "done", []byte("final"))

	// Fresh client with a cursor: replays 2..done and terminates.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/c1", nil)
	req.Header.Set("Last-Event-ID", "1")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("resume request: %v", err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	d := NewDecoder(res.Body)
	var types []string
	var datas []string
	for {
		f, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		types = append(types, f.Event)
		datas = append(datas, string(f.Data))
	}
	if want := []string{"progress", "progress", "done"}; !equalStrings(types, want) {
		t.Fatalf("resumed stream events = %v, want %v", types, want)
	}
	if datas[0] != "2" || datas[1] != "3" || datas[2] != "final" {
		t.Fatalf("resumed stream data = %v", datas)
	}

	// Serve always replays, so live delivery is checked on a topic with
	// no history: the client is subscribed once the headers arrive.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req2, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/c2", nil)
	res2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatalf("live request: %v", err)
	}
	defer res2.Body.Close()
	h.Publish("c2", "done", []byte("live"))
	f, err := NewDecoder(res2.Body).Next()
	if err != nil {
		t.Fatalf("live decode: %v", err)
	}
	if f.Event != "done" || string(f.Data) != "live" {
		t.Fatalf("live frame = %+v", f)
	}
}

func TestServeKeepalive(t *testing.T) {
	// Shortened before the server starts and restored after it closes,
	// so no handler reads the var concurrently with either write.
	saved := keepalive
	keepalive = 5 * time.Millisecond
	defer func() { keepalive = saved }()
	h := NewHub(16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = Serve(w, r, h, "idle", "done", nil)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	defer res.Body.Close()
	buf := make([]byte, 64)
	n, err := res.Body.Read(buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.Contains(string(buf[:n]), ": keepalive") {
		t.Fatalf("idle stream produced %q, want keepalive comment", buf[:n])
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
