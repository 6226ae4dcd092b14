package dsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

func shardLines(lo, hi int) []Line {
	ls := make([]Line, 0, hi-lo)
	for i := lo; i < hi; i++ {
		ls = append(ls, Line{Point: i, Report: json.RawMessage(fmt.Sprintf(`{"v":%d}`, i))})
	}
	return ls
}

func TestMergerOrdersOutOfOrderShards(t *testing.T) {
	var streamed []int
	m := newMerger(context.Background(), func(l Line) { streamed = append(streamed, l.Point) })

	// Shards [4,7), [0,2), [7,8), [2,4) arrive out of order.
	m.deliver(4, shardLines(4, 7))
	if got := m.lines(); len(got) != 0 {
		t.Fatalf("emitted %d lines before point 0 arrived", len(got))
	}
	m.deliver(0, shardLines(0, 2))
	m.deliver(7, shardLines(7, 8))
	m.deliver(2, shardLines(2, 4))

	out := m.lines()
	if len(out) != 8 {
		t.Fatalf("merged %d lines, want 8", len(out))
	}
	for i, l := range out {
		if l.Point != i {
			t.Fatalf("line %d has point %d — not in order", i, l.Point)
		}
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(streamed, want) {
		t.Errorf("OnLine saw %v, want %v", streamed, want)
	}
}

func TestMergerDropsDuplicateDeliveries(t *testing.T) {
	m := newMerger(context.Background(), nil)
	m.deliver(0, shardLines(0, 2))
	m.deliver(0, shardLines(0, 2)) // duplicate of an emitted shard
	m.deliver(4, shardLines(4, 6))
	m.deliver(4, shardLines(4, 6)) // duplicate of a buffered shard
	m.deliver(2, shardLines(2, 4))
	if got := len(m.lines()); got != 6 {
		t.Fatalf("merged %d lines, want 6 (duplicates must be dropped)", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	lines := []Line{
		{Point: 0, Report: json.RawMessage(`{"rounds":12}`)},
		{Point: 1, Error: "boom"},
	}
	var b bytes.Buffer
	if err := WriteJSONL(&b, lines); err != nil {
		t.Fatal(err)
	}
	want := `{"point":0,"report":{"rounds":12}}` + "\n" + `{"point":1,"error":"boom"}` + "\n"
	if b.String() != want {
		t.Errorf("WriteJSONL:\n got %q\nwant %q", b.String(), want)
	}
}
