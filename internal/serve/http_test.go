package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestHTTPRoundTrip drives the full JSON API over a real listener:
// create → edits → assignment → metrics → delete, plus the typed-error
// status mapping for the interesting failure shapes.
func TestHTTPRoundTrip(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		b, ok := body.([]byte) // sent as is
		if !ok {
			var err error
			if b, err = json.Marshal(body); err != nil {
				t.Fatalf("marshal: %v", err)
			}
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// Create a session.
	resp, body := post("/graphs", GraphSpec{MeshN: 200, Seed: 3, P: 4})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", resp.StatusCode, body)
	}
	var info GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("create reply: %v", err)
	}
	if info.ID == "" || info.P != 4 || info.Version != 1 {
		t.Fatalf("create reply: %+v", info)
	}

	// Submit edits; an omitted "v" must decode as -1 (unused), not
	// vertex 0 — attach_vertex with only "u" adds exactly one edge.
	resp, body = post("/graphs/"+info.ID+"/edits", map[string]any{
		"edits": []map[string]any{
			{"op": "attach_vertex", "u": 5},
			{"op": "set_vertex_weight", "u": 7, "weight": 2.5},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edits: status %d, body %s", resp.StatusCode, body)
	}
	var er Response
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("edits reply: %v", err)
	}
	if er.Version < 2 || er.Metrics.BatchEdits < 2 {
		t.Fatalf("edits reply: %+v", er)
	}

	// Assignment reflects the grown graph (one vertex added).
	resp, body = get("/graphs/" + info.ID + "/assignment")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assignment: status %d", resp.StatusCode)
	}
	var ar assignmentReply
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("assignment reply: %v", err)
	}
	if ar.Version != er.Version || ar.P != 4 || len(ar.Parts) != info.Vertices+1 {
		t.Fatalf("assignment reply: version=%d p=%d len=%d (want version=%d p=4 len=%d)",
			ar.Version, ar.P, len(ar.Parts), er.Version, info.Vertices+1)
	}

	// Metrics report the serve ledger.
	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var ms MetricsSnapshot
	if err := json.Unmarshal(body, &ms); err != nil {
		t.Fatalf("metrics reply: %v", err)
	}
	if ms.RequestsServed < 1 || ms.GraphsCreated != 1 || ms.SessionsActive != 1 {
		t.Fatalf("metrics reply: %+v", ms)
	}

	// Typed-error status mapping.
	if resp, _ := post("/graphs/nope/edits", map[string]any{"edits": []map[string]any{{"op": "add_vertex"}}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := post("/graphs/"+info.ID+"/edits", map[string]any{"edits": []map[string]any{}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty edits: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post("/graphs", GraphSpec{MeshN: 100, P: 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad p: status %d, want 400", resp.StatusCode)
	}

	// Ids that do not fit a vertex id are rejected, not aliased onto
	// vertex 0 and vertex 5 by the int32 conversion.
	for _, edit := range []string{
		`{"op":"remove_vertex","u":4294967296}`,
		`{"op":"set_vertex_weight","u":4294967301,"weight":-3}`,
	} {
		resp, body := post("/graphs/"+info.ID+"/edits", []byte(`{"edits":[{"op":"add_vertex"},`+edit+`]}`))
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("edit 1 rejected")) {
			t.Fatalf("aliasing edit %s: status %d, body %s; want 400 'edit 1 rejected'", edit, resp.StatusCode, body)
		}
	}

	// Hostile bodies: one past the size cap, specs asking for a graph
	// past the vertex cap or for more partitions than the P×P arenas may
	// hold.
	huge := bytes.Repeat([]byte(" "), maxBodyBytes+1)
	for _, path := range []string{"/graphs", "/graphs/" + info.ID + "/edits"} {
		if resp, body := post(path, huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized body to %s: status %d, body %s; want 413", path, resp.StatusCode, body)
		}
	}
	for _, spec := range []GraphSpec{{MeshN: maxGraphVertices + 1, P: 4}, {Vertices: maxGraphVertices + 1, P: 4}, {Vertices: 65536, P: 65536}} {
		if resp, body := post("/graphs", spec); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("oversized spec %+v: status %d, body %s; want 400", spec, resp.StatusCode, body)
		}
	}

	// A timeout_ms that has no chance sheds with 504 and leaves the
	// session healthy for the next request.
	resp, _ = post("/graphs/"+info.ID+"/edits", map[string]any{
		"edits":      []map[string]any{{"op": "add_vertex"}},
		"timeout_ms": 0, // 0 = no deadline; exercise the knob parse path
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-deadline edits: status %d", resp.StatusCode)
	}

	// Delete, then every path 404s/410s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/"+info.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", dresp.StatusCode)
	}
	if resp, _ := get("/graphs/" + info.ID + "/assignment"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("assignment after delete: status %d, want 404", resp.StatusCode)
	}
}

// encoderBody is the reference GET /assignment body: json.Encoder's
// encoding of the reply, trailing newline included.
func encoderBody(t *testing.T, version uint64, p int, parts []int32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(assignmentReply{Version: version, P: p, Parts: parts}); err != nil {
		t.Error(err)
	}
	return buf.Bytes()
}

// TestAssignmentBodyBytes: the pre-encoded GET body is byte for byte
// what json.Encoder writes for the assignmentReply of Session.Assignment,
// trailing newline included, and is sent with a Content-Length — across
// a growth edit (a longer parts array) and a removal (a -1 slot).
func TestAssignmentBodyBytes(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	info, err := srv.CreateGraph(context.Background(), GraphSpec{MeshN: 200, Seed: 3, P: 4})
	if err != nil {
		t.Fatalf("CreateGraph: %v", err)
	}
	sess, err := srv.Session(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	check := func(wantVersion uint64, wantLen int) []int32 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/graphs/" + info.ID + "/assignment")
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET body: %v", err)
		}
		version, p, parts := sess.Assignment()
		if version != wantVersion || len(parts) != wantLen {
			t.Fatalf("snapshot: version %d with %d parts, want %d with %d", version, len(parts), wantVersion, wantLen)
		}
		if want := encoderBody(t, version, p, parts); !bytes.Equal(got, want) {
			t.Fatalf("version %d: GET body differs from the json.Encoder encoding\n got %q\nwant %q", version, got, want)
		}
		if resp.ContentLength != int64(len(got)) || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("version %d: Content-Length %d (body %d), Content-Type %q", version, resp.ContentLength, len(got), resp.Header.Get("Content-Type"))
		}
		return parts
	}
	check(1, info.Vertices)
	if _, err := srv.Submit(context.Background(), info.ID, []Edit{{Op: OpAttachVertex, U: 5, V: -1}}); err != nil {
		t.Fatalf("growth edit: %v", err)
	}
	check(2, info.Vertices+1)
	check(2, info.Vertices+1) // served from the body the read before encoded
	if _, err := srv.Submit(context.Background(), info.ID, []Edit{{Op: OpRemoveVertex, U: 9}}); err != nil {
		t.Fatalf("removal edit: %v", err)
	}
	if parts := check(3, info.Vertices+1); parts[9] != -1 {
		t.Fatalf("removed vertex 9 has part %d, want -1", parts[9])
	}
	if m := srv.Metrics(); m.AssignmentReads != 4 || m.SnapshotEncodes != 3 {
		t.Fatalf("assignment_reads = %d, snapshot_encodes = %d, want 4 and 3", m.AssignmentReads, m.SnapshotEncodes)
	}
}

// TestSnapshotReadersRace runs lock-free readers — Session.Assignment
// and the HTTP GET, alternating — beside a writer that grows the graph.
// Each reader must see versions that never go back, an assignment that
// never shrinks, parts in [-1, p), and one encoding per version.
func TestSnapshotReadersRace(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	info, err := srv.CreateGraph(context.Background(), GraphSpec{MeshN: 200, Seed: 8, P: 4})
	if err != nil {
		t.Fatalf("CreateGraph: %v", err)
	}
	sess, err := srv.Session(info.ID)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var (
				lastVersion uint64
				lastLen     int
				lastBody    []byte
			)
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var body []byte
				if i%2 == 0 {
					version, p, parts := sess.Assignment()
					body = encoderBody(t, version, p, parts)
				} else {
					resp, err := http.Get(ts.URL + "/graphs/" + info.ID + "/assignment")
					if err != nil {
						t.Errorf("reader %d: GET: %v", r, err)
						return
					}
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Errorf("reader %d: GET body: %v", r, err)
						return
					}
				}
				var ar assignmentReply
				if err := json.Unmarshal(body, &ar); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if ar.Version < lastVersion || len(ar.Parts) < lastLen {
					t.Errorf("reader %d: version %d with %d parts after version %d with %d", r, ar.Version, len(ar.Parts), lastVersion, lastLen)
					return
				}
				if ar.Version == lastVersion && !bytes.Equal(body, lastBody) {
					t.Errorf("reader %d: two encodings of version %d", r, ar.Version)
					return
				}
				for v, part := range ar.Parts {
					if part < -1 || int(part) >= ar.P {
						t.Errorf("reader %d: vertex %d has part %d, p=%d", r, v, part, ar.P)
						return
					}
				}
				lastVersion, lastLen, lastBody = ar.Version, len(ar.Parts), body
			}
		}(r)
	}
	for i := 0; i < 60; i++ {
		if _, err := srv.Submit(context.Background(), info.ID, []Edit{{Op: OpAttachVertex, U: i, V: i + 1}}); err != nil {
			t.Errorf("writer: submit %d: %v", i, err)
			break
		}
	}
	close(done)
	wg.Wait()
	if version, _, parts := sess.Assignment(); version != 61 || len(parts) != info.Vertices+60 {
		t.Fatalf("final snapshot: version %d with %d parts, want 61 with %d", version, len(parts), info.Vertices+60)
	}
}

// TestHTTPEditDecodeDefaults locks the wire contract of Edit.V: an
// omitted "v" decodes as -1, an explicit 0 stays 0.
func TestHTTPEditDecodeDefaults(t *testing.T) {
	var e Edit
	if err := json.Unmarshal([]byte(`{"op":"attach_vertex","u":3}`), &e); err != nil {
		t.Fatal(err)
	}
	if e.V != -1 {
		t.Fatalf("omitted v = %d, want -1", e.V)
	}
	if err := json.Unmarshal([]byte(`{"op":"add_edge","u":3,"v":0}`), &e); err != nil {
		t.Fatal(err)
	}
	if e.V != 0 {
		t.Fatalf("explicit v=0 decoded as %d", e.V)
	}
	var fromOp Edit
	if err := json.Unmarshal([]byte(fmt.Sprintf(`{"op":%q,"u":1}`, OpRemoveVertex)), &fromOp); err != nil {
		t.Fatal(err)
	}
	if fromOp.Op != OpRemoveVertex {
		t.Fatalf("op round-trip: %q", fromOp.Op)
	}
}
