package nexitwire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/nexit"
)

// TestWireStalledPeerTimeout proves the per-exchange Timeout fires: a
// peer that completes the handshake and then goes silent must fail the
// session within the configured bound, with an error that names the
// stall and still matches os.ErrDeadlineExceeded.
func TestWireStalledPeerTimeout(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)
	connA, connB := net.Pipe()
	defer connA.Close()
	defer connB.Close()

	// The stalled peer: answer the Hello (echoing it back acknowledges
	// the same universe), then swallow every frame without replying.
	go func() {
		typ, body, err := readFrame(connB)
		if err != nil || typ != MsgHello {
			return
		}
		hello, err := decodeHello(body)
		if err != nil {
			return
		}
		fw := frameWriter{w: connB}
		if err := fw.writeFrame(MsgHelloAck, appendHello(nil, hello)); err != nil {
			return
		}
		for {
			if _, _, err := readFrame(connB); err != nil {
				return
			}
		}
	}()

	ini := &Initiator{
		Name:    "agent-a",
		Cfg:     nexit.DefaultDistanceConfig(),
		Eval:    nexit.NewDistanceEvaluator(s, nexit.SideA, 10),
		Timeout: 100 * time.Millisecond,
	}
	start := time.Now()
	_, err := ini.Run(connA, items, defaults, numAlts)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("session against a stalled peer succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("error does not match os.ErrDeadlineExceeded: %v", err)
	}
	if !strings.Contains(err.Error(), "stalled") || !strings.Contains(err.Error(), "100ms") {
		t.Errorf("error does not name the stall and timeout: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("timeout took %v to fire with a 100ms bound", elapsed)
	}
}

// TestWireResponderStallTimeout covers the serving side: an initiator
// that sends the Hello and nothing else must not hang the responder.
func TestWireResponderStallTimeout(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)
	connA, connB := net.Pipe()
	defer connA.Close()
	defer connB.Close()

	errCh := make(chan error, 1)
	go func() {
		resp := &Responder{
			Name:     "agent-b",
			Eval:     nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
			Items:    items,
			Defaults: defaults,
			NumAlts:  numAlts,
			Timeout:  100 * time.Millisecond,
		}
		_, err := resp.ServeConn(connB)
		errCh <- err
	}()

	// Send a valid Hello, read the ack, then go silent (but keep
	// draining so the responder's writes are not what blocks).
	fw := frameWriter{w: connA}
	hello := &Hello{
		Version: Version, Name: "agent-a",
		NumAlts: uint16(numAlts), NumItems: uint32(len(items)),
		WorkloadHash: WorkloadHash(items, defaults, numAlts),
	}
	if err := fw.writeFrame(MsgHello, appendHello(nil, hello)); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, _, err := readFrame(connA); err != nil {
				return
			}
		}
	}()

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("responder returned success against a silent initiator")
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("error does not match os.ErrDeadlineExceeded: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("responder hung on a silent initiator")
	}
}

// TestWireSessionReuse runs several back-to-back sessions on one
// connection — the daemon's epoch pattern — and checks every session
// matches the in-process engine.
func TestWireSessionReuse(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)
	ref, err := nexit.Negotiate(nexit.DefaultDistanceConfig(),
		nexit.NewDistanceEvaluator(s, nexit.SideA, 10),
		nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
		items, defaults, numAlts)
	if err != nil {
		t.Fatal(err)
	}

	connA, connB := net.Pipe()
	defer connA.Close()

	const epochs = 3
	type out struct {
		res *SessionResult
		err error
	}
	ch := make(chan out, epochs+1)
	go func() {
		defer connB.Close()
		resp := &Responder{
			Name:     "agent-b",
			Eval:     nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
			Items:    items,
			Defaults: defaults,
			NumAlts:  numAlts,
			Timeout:  5 * time.Second,
		}
		for {
			hello, err := AcceptHello(connB, resp.Timeout)
			if err != nil {
				ch <- out{nil, err}
				return
			}
			if hello.Name != "agent-a" {
				t.Errorf("hello names peer %q", hello.Name)
			}
			r, err := resp.ServeSession(connB, hello)
			ch <- out{r, err}
			if err != nil {
				return
			}
		}
	}()

	ini := &Initiator{
		Name:    "agent-a",
		Cfg:     nexit.DefaultDistanceConfig(),
		Eval:    nexit.NewDistanceEvaluator(s, nexit.SideA, 10),
		Timeout: 5 * time.Second,
	}
	for e := 0; e < epochs; e++ {
		res, err := ini.Run(connA, items, defaults, numAlts)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		sess := <-ch
		if sess.err != nil {
			t.Fatalf("epoch %d responder: %v", e, sess.err)
		}
		if !reflect.DeepEqual(res.Assign, ref.Assign) || !reflect.DeepEqual(sess.res.Assign, ref.Assign) {
			t.Errorf("epoch %d diverged from the in-process reference", e)
		}
		if sess.res.GainB != ref.GainB || res.GainA != ref.GainA {
			t.Errorf("epoch %d gains: wire (%d,%d), ref (%d,%d)",
				e, res.GainA, sess.res.GainB, ref.GainA, ref.GainB)
		}
	}

	// Closing the initiator side ends the responder loop with a clean EOF.
	connA.Close()
	last := <-ch
	if !errors.Is(last.err, io.EOF) {
		t.Errorf("responder loop ended with %v, want io.EOF", last.err)
	}
}

// TestWireRetiredFramesRejected sends the frame types v5 retired (5–7:
// the per-proposal AcceptRequest, AcceptResponse and Commit) into a live
// session from either side. The receiving endpoint must end the session
// with a labelled "unexpected … frame" error, tell the peer with an
// Error frame, and not hang.
func TestWireRetiredFramesRejected(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)
	for _, side := range []string{"responder", "initiator"} {
		for typ := MsgType(5); typ <= 7; typ++ {
			t.Run(fmt.Sprintf("%s/%d", side, typ), func(t *testing.T) {
				connA, connB := net.Pipe()
				defer connA.Close()
				defer connB.Close()
				// peer is the scripted endpoint; the real one runs in the
				// background and reports its error.
				peer, errCh := connA, make(chan error, 1)
				if side == "responder" {
					resp := &Responder{Name: "agent-b", Eval: nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
						Items: items, Defaults: defaults, NumAlts: numAlts, Timeout: 2 * time.Second}
					go func() { _, err := resp.ServeConn(connB); errCh <- err }()
				} else {
					peer = connB
					ini := &Initiator{Name: "agent-a", Cfg: nexit.DefaultDistanceConfig(),
						Eval: nexit.NewDistanceEvaluator(s, nexit.SideA, 10), Timeout: 2 * time.Second}
					go func() { _, err := ini.Run(connA, items, defaults, numAlts); errCh <- err }()
				}
				fw := frameWriter{w: peer}
				exchange := func(typ MsgType, payload []byte) (MsgType, []byte) {
					t.Helper()
					if payload != nil {
						if err := fw.writeFrame(typ, payload); err != nil {
							t.Fatalf("send %v: %v", typ, err)
						}
					}
					got, body, err := readFrame(peer)
					if err != nil {
						t.Fatalf("read: %v", err)
					}
					return got, body
				}

				if side == "responder" {
					if got, _ := exchange(MsgHello, appendHello(nil, &Hello{Version: Version, Name: "agent-a", Metric: DefaultMetric,
						NumAlts: uint16(numAlts), NumItems: uint32(len(items)), WorkloadHash: WorkloadHash(items, defaults, numAlts)},
					)); got != MsgHelloAck {
						t.Fatalf("hello answered with %v", got)
					}
				} else {
					// Echo the Hello as the ack, disclose all-indifferent
					// preferences, and wait for the first proposal batch.
					got, body := exchange(0, nil)
					for got != MsgProposeBatch {
						reply := MsgHelloAck
						switch got {
						case MsgHello:
						case MsgPrefsRequest:
							req, err := decodePrefsRequest(body)
							if err != nil {
								t.Fatal(err)
							}
							resp := &PrefsResponse{Prefs: make([][]int8, len(req.ItemIDs))}
							for i := range resp.Prefs {
								resp.Prefs[i] = make([]int8, numAlts)
							}
							reply, body = MsgPrefsResponse, appendPrefsResponse(nil, resp)
						default:
							t.Fatalf("initiator sent %v before any proposal batch", got)
						}
						got, body = exchange(reply, body)
					}
				}

				// The retired frame, with a Commit-shaped payload.
				want := fmt.Sprintf("unexpected msg(%d) frame", typ)
				got, body := exchange(typ, []byte{0, 0, 0, 1, 0, 1})
				if em, err := decodeError(body); got != MsgError || err != nil || !strings.Contains(em.Reason, want) {
					t.Errorf("retired frame answered with %v %q (%v), want an error frame naming %q", got, body, err, want)
				}
				select {
				case err := <-errCh:
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%s error %v, want %q", side, err, want)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s hung after a retired frame", side)
				}
			})
		}
	}
}
