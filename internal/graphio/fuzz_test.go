package graphio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"testing"

	"ssmis/internal/graph"
)

// Vertex counts the int32 vertex ids cannot hold are rejected with an
// error before anything is allocated: the first header used to panic in
// makeslice, the second to exhaust memory.
func TestReadRejectsOversizedVertexCount(t *testing.T) {
	for _, n := range []string{"9223372036854775807", "4294967298", "2147483648"} {
		if _, err := ReadEdgeList(strings.NewReader("n " + n + "\n")); err == nil {
			t.Errorf("edge list with n %s: no error", n)
		}
		if _, err := ReadJSON(strings.NewReader(`{"n": ` + n + `, "edges": []}`)); err == nil {
			t.Errorf("JSON with n %s: no error", n)
		}
	}
}

// fuzzMaxN bounds the vertex count a fuzz input may make the readers
// allocate. Counts above maxVertices are rejected before any allocation,
// so those inputs still run.
const fuzzMaxN = 1 << 16

func skipLargeN(t *testing.T, n int) {
	if n > fuzzMaxN && n <= maxVertices {
		t.Skipf("declares %d vertices", n)
	}
}

// declaredEdgeListN returns the count of the first "n <count>" header line,
// as ReadEdgeList would find it, or -1.
func declaredEdgeListN(data []byte) int {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == "n" {
			if n, err := strconv.Atoi(fields[1]); err == nil {
				return n
			}
		}
	}
	return -1
}

// checkRoundTrip writes g with write, reads it back with read, and
// requires the same graph.
func checkRoundTrip(t *testing.T, g *graph.Graph,
	write func(io.Writer, *graph.Graph) error, read func(io.Reader) (*graph.Graph, error)) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := read(&buf)
	if err != nil {
		t.Fatalf("re-reading written graph: %v", err)
	}
	if !sameGraph(g, back) {
		t.Fatal("graph changed across a write/read round trip")
	}
}

func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"n 3\n0 1\n1 2\n",
		"# comment\n\nn 4\n0 1\n2 3\n0 1\n",
		"n 0\n",
		"n 3\n1 1\n",
		"n 3\n0 3\n",
		"0 1\n",
		"n 9223372036854775807\n",
		"n 4294967298\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		skipLargeN(t, declaredEdgeListN(data))
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkRoundTrip(t, g, WriteEdgeList, ReadEdgeList)
	})
}

func FuzzReadJSON(f *testing.F) {
	for _, seed := range []string{
		`{"n": 3, "edges": [[0,1],[1,2]]}`,
		`{"n": 0, "edges": []}`,
		`{"n": 3, "edges": [[1,1]]}`,
		`{"n": 3, "edges": [[0,5]]}`,
		`{"n": -1}`,
		`{`,
		`{"n": 9223372036854775807, "edges": []}`,
		`{"n": 4294967298, "edges": []}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var probe struct {
			N int `json:"n"`
		}
		_ = json.NewDecoder(bytes.NewReader(data)).Decode(&probe)
		skipLargeN(t, probe.N)
		g, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkRoundTrip(t, g, WriteJSON, ReadJSON)
	})
}
