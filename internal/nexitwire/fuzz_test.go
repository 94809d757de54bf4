package nexitwire

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

// TestDecodersNeverPanic feeds arbitrary bytes to every decoder: they
// must return errors, not panic, regardless of input (a peer can send
// anything).
func TestDecodersNeverPanic(t *testing.T) {
	decoders := []struct {
		name string
		fn   func([]byte) error
	}{
		{"hello", func(b []byte) error { _, err := decodeHello(b); return err }},
		{"prefs-request", func(b []byte) error { _, err := decodePrefsRequest(b); return err }},
		{"prefs-response", func(b []byte) error { _, err := decodePrefsResponse(b); return err }},
		{"revert", func(b []byte) error { _, err := decodeRevert(b); return err }},
		{"done", func(b []byte) error { _, err := decodeDone(b); return err }},
		{"error", func(b []byte) error { _, err := decodeError(b); return err }},
		{"propose-batch", func(b []byte) error { _, err := decodeProposeBatch(b); return err }},
		{"batch-accept", func(b []byte) error { _, err := decodeBatchAccept(b); return err }},
	}
	for _, d := range decoders {
		d := d
		f := func(raw []byte) bool {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic on %x: %v", d.name, raw, r)
				}
			}()
			_ = d.fn(raw) // error or success, never panic
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", d.name, err)
		}
	}
}

// TestFrameReaderNeverPanics drives readFrame with arbitrary byte
// streams.
func TestFrameReaderNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("readFrame panic on %x: %v", raw, r)
			}
		}()
		r := bytes.NewReader(raw)
		for {
			if _, _, err := readFrame(r); err != nil {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEncodeDecodeIdentityProperty: for structurally valid messages,
// decode(encode(m)) == m (spot-checked with randomized Done payloads,
// the most complex frame).
func TestEncodeDecodeIdentityProperty(t *testing.T) {
	f := func(assignRaw []uint16, gainA, gainB int32, reason uint8, rounds uint32) bool {
		assign := assignRaw
		if assign == nil {
			assign = []uint16{}
		}
		m := &Done{Assign: assign, GainA: gainA, GainB: gainB, StopReason: reason, Rounds: rounds}
		got, err := decodeDone(appendDone(nil, m))
		if err != nil {
			return false
		}
		if len(got.Assign) != len(assign) {
			return false
		}
		for i := range assign {
			if got.Assign[i] != assign[i] {
				return false
			}
		}
		return got.GainA == gainA && got.GainB == gainB &&
			got.StopReason == reason && got.Rounds == rounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// reencode pairs a decoder with its encoder: the returned function
// decodes a payload and, when it is accepted, encodes the message again.
func reencode[M any](decode func([]byte) (*M, error), encode func([]byte, *M) []byte) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) {
		m, err := decode(b)
		if err != nil {
			return nil, err
		}
		return encode(nil, m), nil
	}
}

// canonical holds every frame type with a single encoding.
var canonical = map[MsgType]func([]byte) ([]byte, error){
	MsgPrefsRequest:  reencode(decodePrefsRequest, appendPrefsRequest),
	MsgPrefsResponse: reencode(decodePrefsResponse, appendPrefsResponse),
	MsgRevert:        reencode(decodeRevert, appendRevert),
	MsgDone:          reencode(decodeDone, appendDone),
	MsgError:         reencode(decodeError, appendError),
	MsgProposeBatch:  reencode(decodeProposeBatch, appendProposeBatch),
	MsgBatchAccept:   reencode(decodeBatchAccept, appendBatchAccept),
}

// FuzzWireDecode reads arbitrary bytes twice: as a stream of frames
// through readFrame, and as one unframed type byte plus payload, so the
// decoders also see shapes a length prefix would have to match. Each
// payload goes to its type's decoder. Nothing may panic. A payload a
// single-encoding type accepts must re-encode to the same bytes. Hello
// tolerates a newer version's trailing fields, so its re-encoding must
// instead decode back to the same struct.
func FuzzWireDecode(f *testing.F) {
	seeds := []rawFrame{
		{MsgHello, appendHello(nil, &Hello{Version: Version, Name: "isp-a", NumAlts: 3, NumItems: 9, WorkloadHash: 42, Metric: "distance", Epoch: 7})},
		{MsgHelloAck, appendHello(nil, &Hello{Version: 1, Name: "isp-b", NumAlts: 3, NumItems: 9, WorkloadHash: 42})},
		{MsgHello, append(appendHello(nil, &Hello{Version: Version + 1, Name: "isp-z", Metric: "bandwidth"}), 0xAB)},
		{MsgPrefsRequest, appendPrefsRequest(nil, &PrefsRequest{ItemIDs: []uint32{3, 9}, Defaults: []uint16{0, 2}})},
		{MsgPrefsResponse, appendPrefsResponse(nil, &PrefsResponse{Prefs: [][]int8{{0, -3, 10}, {5, 0, -10}}})},
		{MsgRevert, appendRevert(nil, &Revert{ItemID: 9, Alt: 2, Def: 1})},
		{MsgDone, appendDone(nil, &Done{Assign: []uint16{0, 1, 2}, GainA: -5, GainB: 12, StopReason: 2, Rounds: 99})},
		{MsgError, appendError(nil, &ErrorMsg{Reason: "epoch skew: initiator at epoch 1, responder at epoch 2"})},
		{MsgProposeBatch, appendProposeBatch(nil, &ProposeBatch{Proposals: []AcceptRequest{{Round: 1, ItemID: 2, Alt: 3, PrefInitiator: -4}}})},
		{MsgBatchAccept, appendBatchAccept(nil, &BatchAccept{Accepted: 1})},
		{7, []byte{0, 0, 0, 1, 0, 1}}, // a retired Commit frame
	}
	for _, s := range seeds {
		f.Add(append([]byte{byte(s.typ)}, s.payload...))
	}
	stream := writeFrames(f, seeds...)
	f.Add(stream.Bytes())                    // a whole session's worth of frames
	f.Add(stream.Bytes()[:stream.Len()/2])   // truncated mid-frame
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1}) // oversized length prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, body, err := readFrame(r)
			if err != nil {
				break
			}
			checkDecode(t, typ, body)
		}
		if len(data) > 0 {
			checkDecode(t, MsgType(data[0]), data[1:])
		}
	})
}

// checkDecode decodes one payload as type typ and checks its
// re-encoding.
func checkDecode(t *testing.T, typ MsgType, body []byte) {
	if typ == MsgHello || typ == MsgHelloAck {
		h, err := decodeHello(body)
		if err != nil {
			return
		}
		again, err := decodeHello(appendHello(nil, h))
		if err != nil || !reflect.DeepEqual(again, h) {
			t.Fatalf("hello %+v re-decoded as %+v (%v)", h, again, err)
		}
		return
	}
	if decode := canonical[typ]; decode != nil {
		re, err := decode(body)
		if err == nil && !bytes.Equal(re, body) {
			t.Fatalf("%v accepted non-canonical bytes %x: re-encoded as %x", typ, body, re)
		}
	}
}
