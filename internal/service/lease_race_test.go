package service

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestFreshTokensSurviveConcurrentPatches is the dead-token hammer: a
// page or stream that hands out a cursor while a PATCH of the same
// document retires the generation it read must still hand out a live
// token. One goroutine alternates insert and delete patches on the
// document; the test resumes every fresh token at once, well inside its
// TTL, so every resume must succeed. A request that looks its generation
// up and only then leases it loses that race to the patch's sweep.
func TestFreshTokensSurviveConcurrentPatches(t *testing.T) {
	svc := New(shard.NewStore(1), Options{CursorTTL: 5 * time.Second})
	// Node 1 is <r>; an appended child lands at node 6, past the three
	// <b/> answers, so //b keeps its count across the patch cycle.
	if _, err := svc.Store().LoadXML("d", []byte("<r><a/><b/><b/><b/></r>")); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var patches atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := svc.PatchDoc("d", PatchDocRequest{Op: "insert", Node: 1, XML: "<a/>"}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if _, err := svc.PatchDoc("d", PatchDocRequest{Op: "delete", Node: 6}); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
			patches.Add(2)
		}
	}()

	run := 2 * time.Second
	if testing.Short() {
		run = 300 * time.Millisecond
	}
	req := Request{Doc: "d", Query: "//b", Limit: 1}
	var paged, streamed int
	for deadline := time.Now().Add(run); time.Now().Before(deadline); {
		first := svc.Eval(req)
		if first.Err != "" || first.Next == "" {
			t.Fatalf("first page: err %q, next %q", first.Err, first.Next)
		}
		resumed := req
		resumed.Cursor = first.Next
		if r := svc.Eval(resumed); r.Err != "" {
			t.Fatalf("paged resume %d of a fresh token (gen %d): %s", paged, first.Gen, r.Err)
		}
		paged++

		var buf bytes.Buffer
		if pre := svc.Stream(&buf, req, 0); pre != nil {
			t.Fatalf("stream: %s", pre.Err)
		}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		var tr StreamTrailer
		if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Err != "" || tr.Cursor == "" {
			t.Fatalf("stream trailer: err %q, cursor %q", tr.Err, tr.Cursor)
		}
		resumed.Cursor = tr.Cursor
		buf.Reset()
		if pre := svc.Stream(&buf, resumed, 0); pre != nil {
			t.Fatalf("stream resume %d of a fresh trailer cursor: %s", streamed, pre.Err)
		}
		streamed++
	}
	close(stop)
	wg.Wait()
	if patches.Load() == 0 {
		t.Fatal("no patch ran concurrently with the reads")
	}
	t.Logf("%d paged and %d streamed resumes across %d patches", paged, streamed, patches.Load())
}
