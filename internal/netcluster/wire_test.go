package netcluster

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/mitos-project/mitos/internal/core"
	"github.com/mitos-project/mitos/internal/val"
)

func TestWireRoundTrips(t *testing.T) {
	hello := Hello{Role: RolePeer, ID: 3}
	if got, err := DecodeHello(AppendHello(nil, hello)); err != nil || got != hello {
		t.Errorf("Hello: got %+v, err %v", got, err)
	}
	reg := Register{DataAddr: "127.0.0.1:9999", Name: "rack2-worker-7"}
	if got, err := DecodeRegister(AppendRegister(nil, reg)); err != nil || got != reg {
		t.Errorf("Register: got %+v, err %v", got, err)
	}
	// An anonymous Register (v2 workers that predate ServeLoop's default
	// naming) round-trips with the empty name intact.
	if got, err := DecodeRegister(AppendRegister(nil, Register{DataAddr: "h:1"})); err != nil || got.Name != "" || got.DataAddr != "h:1" {
		t.Errorf("anonymous Register: got %+v, err %v", got, err)
	}
	a := Assign{ID: 2, Workers: 4, Peers: []string{"a:1", "b:2", "c:3", "d:4"}, HeartbeatMillis: 250, CreditWindow: 8}
	got, err := DecodeAssign(AppendAssign(nil, a))
	if err != nil || got.ID != a.ID || got.Workers != a.Workers || len(got.Peers) != 4 || got.Peers[2] != "c:3" ||
		got.HeartbeatMillis != 250 || got.CreditWindow != 8 {
		t.Errorf("Assign: got %+v, err %v", got, err)
	}
	spec := JobSpec{
		Source:   "x = readDataset(a);",
		Options:  core.Options{Parallelism: 4, BatchSize: 128, Pipelining: true, Combiners: true, Templates: true, Delta: true},
		Datasets: []Dataset{{Name: "a", Elems: []val.Value{val.Int(1), val.Str("two"), val.Pair(val.Int(3), val.Float(4.5))}}},
	}
	gotSpec, err := DecodeJobSpec(AppendJobSpec(nil, spec))
	if err != nil {
		t.Fatalf("JobSpec: %v", err)
	}
	if gotSpec.Source != spec.Source || gotSpec.Parallelism != 4 || !gotSpec.Pipelining || gotSpec.Hoisting ||
		!gotSpec.Templates || !gotSpec.Delta || len(gotSpec.Datasets) != 1 {
		t.Fatalf("JobSpec: got %+v", gotSpec)
	}
	if elems := decodeShipped(t, gotSpec.Datasets[0]); len(elems) != 3 || elems[2].Field(1).AsFloat() != 4.5 {
		t.Errorf("JobSpec dataset: got %v", elems)
	}
	multi := JobSpec{Source: "s", Options: core.Options{Parallelism: 5}, Datasets: []Dataset{
		{Name: "a", Part: 1, Parts: 5, Elems: []val.Value{val.Int(1), val.Int(6)}},
		{Name: "a", Part: 4, Parts: 5},
		{Name: "b", Part: 1, Parts: 5, Elems: []val.Value{val.Str("x")}},
	}}
	gotMulti, err := DecodeJobSpec(AppendJobSpec(nil, multi))
	if err != nil || len(gotMulti.Datasets) != 3 {
		t.Fatalf("multi-part JobSpec: %+v, %v", gotMulti, err)
	}
	for i, want := range multi.Datasets {
		got := gotMulti.Datasets[i]
		elems := decodeShipped(t, got)
		if got.Name != want.Name || got.Part != want.Part || got.Parts != want.Parts || len(elems) != len(want.Elems) {
			t.Fatalf("multi-part JobSpec dataset %d: got %+v, want %+v", i, got, want)
		}
		for k := range want.Elems {
			if !elems[k].Equal(want.Elems[k]) {
				t.Errorf("multi-part JobSpec dataset %d element %d: got %v, want %v", i, k, elems[k], want.Elems[k])
			}
		}
	}
	r := ResultMsg{Datasets: []Dataset{{Name: "out", Elems: []val.Value{val.Int(9)}}},
		Peers: []PeerStat{{Peer: 1, BytesOut: 100, CreditStalls: 3, StallNanos: 12345}}}
	r.JoinBuilds = 7
	r.DeltaIn, r.DeltaChanged, r.DeltaTouched, r.DeltaElements, r.DeltaBytes = 1000, 600, 1700, 88, 4096
	r.Job.ElementsSent = 42
	r.Job.CtrlMessages = 17
	r.Job.CtrlBytes = 321
	gotR, err := DecodeResult(AppendResult(nil, r))
	if err != nil || gotR.Job.ElementsSent != 42 || gotR.JoinBuilds != 7 ||
		gotR.Job.CtrlMessages != 17 || gotR.Job.CtrlBytes != 321 ||
		gotR.DeltaIn != 1000 || gotR.DeltaChanged != 600 || gotR.DeltaTouched != 1700 ||
		gotR.DeltaElements != 88 || gotR.DeltaBytes != 4096 ||
		len(gotR.Peers) != 1 || gotR.Peers[0].StallNanos != 12345 || len(gotR.Datasets) != 1 ||
		gotR.Datasets[0].Part != 0 || gotR.Datasets[0].Parts != 1 {
		t.Errorf("Result: got %+v, err %v", gotR, err)
	}
	sg := PathSegMsg{Pos: 104, Head: 2}
	if gotSg, err := DecodePathSeg(AppendPathSeg(nil, sg)); err != nil || gotSg != sg {
		t.Errorf("PathSeg: got %+v, err %v", gotSg, err)
	}
	ev := EventMsg{Kind: 1, Pos: 9, Count: 5}
	if gotEv, err := DecodeEvent(AppendEvent(nil, ev)); err != nil || gotEv != ev {
		t.Errorf("Event with Count: got %+v, err %v", gotEv, err)
	}
	h := FrameHeader{Op: 5, Inst: 2, Input: 1, From: 3, Arg: 77}
	gotH, payload, err := DecodeFrameHeader(append(AppendFrameHeader(nil, h), 0xaa, 0xbb))
	if err != nil || gotH != h || len(payload) != 2 || payload[0] != 0xaa {
		t.Errorf("FrameHeader: got %+v payload %x err %v", gotH, payload, err)
	}
}

// TestWireGoldenBytes pins the encodings of a ResultMsg and of two JobSpec
// headers to the bytes wire version 7 has always carried, every field set
// by name: a change to how the messages or their counters and options are
// declared must not change what travels without a new Version.
func TestWireGoldenBytes(t *testing.T) {
	r := ResultMsg{
		Datasets: []Dataset{{Name: "out", Elems: []val.Value{val.Int(9), val.Str("x")}}},
		Peers:    []PeerStat{{Peer: 1, BytesOut: 100, BytesIn: 90, FramesOut: 3, FramesIn: 4, CreditStalls: 5, StallNanos: 12345}},
	}
	r.Job.ElementsSent, r.Job.ElementsChained, r.Job.BatchesSent = 1, 2, 3
	r.Job.RemoteBatches, r.Job.BytesSent, r.Job.BytesReceived = 4, 5, 6
	r.Job.MailboxDropped, r.Job.CtrlMessages, r.Job.CtrlBytes = 7, 8, 9
	r.JoinBuilds, r.MaxBufferedBags, r.CombineIn, r.CombineOut = 10, 11, 12, 13
	r.DeltaIn, r.DeltaChanged, r.DeltaTouched, r.DeltaElements, r.DeltaBytes = 14, 15, 16, 17, -18
	// The coordinator's own counters do not travel.
	r.Steps, r.ChainedEdges, r.TemplateInstalls, r.TemplateInstantiations = 99, 98, 97, 96
	header := func(s JobSpec) []byte {
		var e enc
		appendJobHeader(&e, s)
		return e.b
	}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"ResultMsg", AppendResult(nil, r),
			"020406080a0c0e10121416181a1c1e20222301036f757400010201120301780102c801b40106080af2c001"},
		{"JobSpec header", header(JobSpec{Source: "x = 1", Trace: true, LiveView: true, Options: core.Options{
			Parallelism: 3, BatchSize: 128, Pipelining: true, Combiners: true, Templates: true, Delta: true}}),
			"0578203d2031068002010001000101010001"},
		{"JobSpec header, other switches", header(JobSpec{Source: "y", Lineage: true, Options: core.Options{Hoisting: true, Chaining: true}}),
			"01790000000100010000000100"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s encodes as\n%s, want\n%s", tc.name, got, tc.want)
		}
	}
}

// TestJobSpecShipsOptions sets each field of core.Options in turn and ships
// it: every non-pointer field must survive AppendJobSpec and DecodeJobSpec,
// or the workers would run — and plan — under other options than the
// coordinator (the TCP twin of core's TestPlanKeyCoversCompile). The
// pointer fields are each endpoint's own and must not ship.
func TestJobSpecShipsOptions(t *testing.T) {
	typ := reflect.TypeOf(core.Options{})
	for i := 0; i < typ.NumField(); i++ {
		var opts core.Options
		f := reflect.ValueOf(&opts).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(7)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("Options.%s is a %s: teach the wire and this test to ship it", typ.Field(i).Name, f.Kind())
		}
		sent := specFromOptions("x", opts, nil)
		got, err := DecodeJobSpec(AppendJobSpec(nil, sent))
		if err != nil {
			t.Fatalf("Options.%s: %v", typ.Field(i).Name, err)
		}
		want := opts
		if f.Kind() == reflect.Pointer {
			want = core.Options{}
		}
		if sent.Options != want || got.Options != want {
			t.Errorf("Options.%s: shipped %+v, decoded %+v, want %+v", typ.Field(i).Name, sent.Options, got.Options, want)
		}
	}
}

func TestWireHelloRejectsMismatch(t *testing.T) {
	b := AppendHello(nil, Hello{Role: RoleWorker})
	b[0] ^= 0x40 // corrupt the magic varint's low bits
	if _, err := DecodeHello(b); err == nil {
		t.Error("corrupt magic accepted")
	}
	e := enc{}
	e.u64(Magic)
	e.u64(Version + 1)
	e.b = append(e.b, RoleWorker)
	e.num(0)
	if _, err := DecodeHello(e.b); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}
}

// specWithPart encodes a JobSpec whose one dataset claims part of parts,
// bypassing the encoder's normalization of a zero Parts.
func specWithPart(part, parts uint64) []byte {
	e := enc{}
	appendJobHeader(&e, JobSpec{Source: "s", Options: core.Options{Parallelism: 2}})
	e.u64(1)
	e.str("d")
	e.u64(part)
	e.u64(parts)
	e.u64(1)
	e.b = val.AppendBinary(e.b, val.Int(7))
	return e.b
}

func TestWireRejectsPartOutOfRange(t *testing.T) {
	if _, err := DecodeJobSpec(specWithPart(1, 2)); err != nil {
		t.Fatalf("part 1 of 2 rejected: %v", err)
	}
	for _, tc := range []struct{ part, parts uint64 }{{2, 2}, {5, 2}, {0, 0}, {0, maxParts + 1}} {
		if _, err := DecodeJobSpec(specWithPart(tc.part, tc.parts)); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("part %d of %d: %v, want an out-of-range error", tc.part, tc.parts, err)
		}
	}
}

func TestReadMsgFraming(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteMsg(&buf, nil, MsgHeartbeat, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	typ, body, _, err := ReadMsg(&buf, nil)
	if err != nil || typ != MsgHeartbeat || len(body) != 3 {
		t.Fatalf("typ %#x body %x err %v", typ, body, err)
	}

	// Truncated mid-body: error, not hang or panic.
	var tr bytes.Buffer
	WriteMsg(&tr, nil, MsgData, make([]byte, 1000))
	short := tr.Bytes()[:500]
	if _, _, _, err := ReadMsg(bytes.NewReader(short), nil); err == nil {
		t.Error("truncated frame accepted")
	}

	// Oversized length prefix: rejected before any body read.
	var over [5]byte
	binary.BigEndian.PutUint32(over[:4], MaxMsg+1)
	if _, _, _, err := ReadMsg(bytes.NewReader(over[:]), nil); err == nil || !strings.Contains(err.Error(), "MaxMsg") {
		t.Errorf("oversized frame: %v", err)
	}

	// Zero-length frame: rejected (no type byte).
	var zero [4]byte
	if _, _, _, err := ReadMsg(bytes.NewReader(zero[:]), nil); err == nil {
		t.Error("empty frame accepted")
	}

	// Corrupt huge length with a tiny actual body must not allocate the
	// claimed size: the reader grows in readChunk steps and fails on the
	// first short read.
	var corrupt [5]byte
	binary.BigEndian.PutUint32(corrupt[:4], MaxMsg) // claims 64 MiB
	corrupt[4] = MsgData
	r := &meteredReader{r: bytes.NewReader(corrupt[:])}
	_, _, buf2, err := ReadMsg(r, nil)
	if err == nil {
		t.Error("short 64 MiB claim accepted")
	}
	if cap(buf2) > 2*readChunk {
		t.Errorf("reader allocated %d bytes for a frame that sent 1", cap(buf2))
	}
}

type meteredReader struct{ r io.Reader }

func (m *meteredReader) Read(p []byte) (int, error) { return m.r.Read(p) }

// FuzzFrameRoundTrip feeds arbitrary bytes to every decoder: none may
// panic, and any input a decoder accepts must re-encode to an equivalent
// message (checked by decoding again and comparing). A JobSpec it accepts
// keeps its datasets encoded, and every element of them must decode. ReadMsg
// additionally must never allocate more than one chunk beyond what the input
// actually contains.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Role: RolePeer, ID: 1}), byte(0))
	f.Add(AppendAssign(nil, Assign{ID: 1, Workers: 3, Peers: []string{"x:1", "y:2", "z:3"}, HeartbeatMillis: 100}), byte(1))
	f.Add(AppendJobSpec(nil, JobSpec{Source: "loop", Options: core.Options{Parallelism: 2}, Datasets: []Dataset{{Name: "d", Elems: []val.Value{val.Int(5)}}}}), byte(2))
	f.Add(AppendJobSpec(nil, JobSpec{Source: "loop", Options: core.Options{Parallelism: 3}, Datasets: []Dataset{{Name: "d", Part: 2, Parts: 3, Elems: []val.Value{val.Int(5)}}}}), byte(2))
	f.Add(specWithPart(2, 2), byte(2))
	f.Add(specWithPart(0, 0), byte(2))
	f.Add(AppendResult(nil, ResultMsg{Peers: []PeerStat{{Peer: 1}}}), byte(3))
	f.Add(AppendFrameHeader(nil, FrameHeader{Op: 1, Inst: 2, Input: 0, From: 1, Arg: 9}), byte(4))
	f.Add(AppendPathSeg(nil, PathSegMsg{Pos: 7, Head: 1}), byte(5))
	f.Add(AppendEvent(nil, EventMsg{Kind: 1, Pos: 4, Branch: true, Count: 3}), byte(6))
	f.Add([]byte{0, 0, 0, 5, MsgData, 1, 2, 3, 4}, byte(7))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0}, byte(7))

	f.Fuzz(func(t *testing.T, data []byte, which byte) {
		switch which % 8 {
		case 0:
			if h, err := DecodeHello(data); err == nil {
				h2, err := DecodeHello(AppendHello(nil, h))
				if err != nil || h2 != h {
					t.Fatalf("Hello not stable: %+v vs %+v (%v)", h, h2, err)
				}
			}
		case 1:
			if a, err := DecodeAssign(data); err == nil {
				a2, err := DecodeAssign(AppendAssign(nil, a))
				if err != nil || a2.ID != a.ID || len(a2.Peers) != len(a.Peers) {
					t.Fatalf("Assign not stable (%v)", err)
				}
			}
		case 2:
			if s, err := DecodeJobSpec(data); err == nil {
				s2, err := DecodeJobSpec(AppendJobSpec(nil, s))
				if err != nil || s2.Source != s.Source || len(s2.Datasets) != len(s.Datasets) {
					t.Fatalf("JobSpec not stable (%v)", err)
				}
				for i, ds := range s.Datasets {
					if ds.Part < 0 || ds.Part >= ds.Parts || s2.Datasets[i].Part != ds.Part || s2.Datasets[i].Parts != ds.Parts {
						t.Fatalf("JobSpec dataset %d: part %d of %d decoded, %d of %d re-decoded",
							i, ds.Part, ds.Parts, s2.Datasets[i].Part, s2.Datasets[i].Parts)
					}
					decodeShipped(t, ds)
				}
			}
		case 3:
			if r, err := DecodeResult(data); err == nil {
				r2, err := DecodeResult(AppendResult(nil, r))
				if err != nil || r2.Job != r.Job || len(r2.Peers) != len(r.Peers) {
					t.Fatalf("Result not stable (%v)", err)
				}
			}
		case 4:
			if h, payload, err := DecodeFrameHeader(data); err == nil {
				h2, p2, err := DecodeFrameHeader(append(AppendFrameHeader(nil, h), payload...))
				if err != nil || h2 != h || !bytes.Equal(p2, payload) {
					t.Fatalf("FrameHeader not stable (%v)", err)
				}
			}
		case 5:
			if m, err := DecodePathSeg(data); err == nil {
				if m2, err := DecodePathSeg(AppendPathSeg(nil, m)); err != nil || m2 != m {
					t.Fatalf("PathSeg not stable (%v)", err)
				}
			}
		case 6:
			if ev, err := DecodeEvent(data); err == nil {
				if ev2, err := DecodeEvent(AppendEvent(nil, ev)); err != nil || ev2 != ev {
					t.Fatalf("Event not stable (%v)", err)
				}
			}
		case 7:
			// The framing layer itself: arbitrary bytes as a stream. Must
			// error or yield a well-formed frame — and never allocate far
			// beyond the input size.
			typ, body, buf, err := ReadMsg(bytes.NewReader(data), nil)
			if err == nil {
				if len(body) > len(data) {
					t.Fatalf("body %d bytes from %d input bytes", len(body), len(data))
				}
				_ = typ
			}
			if cap(buf) > len(data)+2*readChunk {
				t.Fatalf("ReadMsg allocated %d for %d input bytes", cap(buf), len(data))
			}
		}
	})
}
