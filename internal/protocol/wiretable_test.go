package protocol

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dmknn/internal/model"
)

// PROTOCOL.md's byte tables state each kind's wire size as a constant
// plus a per-record coefficient for each list ("35 + 12n"). Every number
// in them must be what EncodedSize gives: the constant from the kind
// with its lists empty (less the inner message for an envelope, whose
// row ends in "inner"), each coefficient from one more record.
func TestWireTablesMatchCodec(t *testing.T) {
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	// The smallest sample of each kind is the one with empty lists.
	base := map[Kind]Message{}
	for _, m := range sampleMessages() {
		if b, ok := base[m.Kind()]; !ok || EncodedSize(m) < EncodedSize(b) {
			base[m.Kind()] = m
		}
	}
	// The kind with one record in the list the tables name by letter.
	one := map[Kind]map[string]Message{
		KindAnswerUpdate: {"n": AnswerUpdate{Neighbors: make([]model.Neighbor, 1)}},
		KindAnswerDelta: {
			"a": AnswerDelta{Added: make([]model.Neighbor, 1)},
			"r": AnswerDelta{Removed: make([]model.ObjectID, 1)},
		},
		KindObjectHandoff: {"a": ObjectHandoff{Aware: make([]AwareEntry, 1)}},
		KindQueryHandoff: {
			"c": QueryHandoff{Candidates: make([]CandidateRecord, 1)},
			"i": QueryHandoff{Inside: make([]model.ObjectID, 1)},
			"s": QueryHandoff{Sent: make([]model.ObjectID, 1)},
			"p": QueryHandoff{Spread: make([]uint16, 1)},
		},
		KindNodeRedirect:    {"len(addr)": NodeRedirect{Addr: "x"}},
		KindPartitionUpdate: {"c": PartitionUpdate{Owners: make([]uint16, 1)}},
	}
	byName := map[string]Kind{}
	for k, name := range kindNames {
		byName[name] = k
	}
	kindRe, termRe := regexp.MustCompile("`([a-z-]+)`"), regexp.MustCompile(`^(\d*)(.+)$`)

	tables, seen := 0, map[Kind]bool{}
	inTable, col := false, -1
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if !inTable { // a header row
			inTable, col = true, slices.Index(cells, "bytes")
			if col >= 0 {
				tables++
			}
			continue
		}
		if col < 0 || strings.HasPrefix(cells[0], "---") || cells[col] == "—" {
			continue
		}
		for _, name := range kindRe.FindAllStringSubmatch(cells[0], -1) {
			k, ok := byName[name[1]]
			if !ok || base[k] == nil {
				t.Errorf("row %q: no sample message of kind %q", cells[0], name[1])
				continue
			}
			seen[k] = true
			m, terms := base[k], strings.Split(cells[col], " + ")
			documented := map[string]bool{}
			for _, term := range terms {
				if fixed, err := strconv.Atoi(term); err == nil {
					if got := EncodedSize(m) - innerSize(m); got != fixed {
						t.Errorf("%v: PROTOCOL.md says %d fixed bytes, EncodedSize gives %d", k, fixed, got)
					}
					continue
				}
				if term == "inner" {
					documented[term] = true
					continue
				}
				// A coefficient (1 when absent) times one list, or a
				// parenthesized sum of lists: "12n", "4(i+s)", "len(addr)".
				parts := termRe.FindStringSubmatch(term)
				coef, lists := 1, parts[2]
				if parts[1] != "" {
					coef, _ = strconv.Atoi(parts[1])
				}
				if strings.HasPrefix(lists, "(") {
					lists = strings.Trim(lists, "()")
				}
				for _, v := range strings.Split(lists, "+") {
					documented[v] = true
					with, ok := one[k][v]
					if !ok {
						t.Errorf("%v: PROTOCOL.md names list %q, which the kind does not have", k, v)
						continue
					}
					if got := EncodedSize(with) - EncodedSize(m); got != coef {
						t.Errorf("%v: PROTOCOL.md says %d bytes per %s record, EncodedSize gives %d", k, coef, v, got)
					}
				}
			}
			for v := range one[k] {
				if !documented[v] {
					t.Errorf("%v: PROTOCOL.md's %q leaves out list %q", k, cells[col], v)
				}
			}
			if innerSize(m) > 0 && !documented["inner"] {
				t.Errorf("%v: PROTOCOL.md's %q leaves out the inner message", k, cells[col])
			}
		}
	}
	if tables != 3 {
		t.Errorf("found %d byte tables in PROTOCOL.md, want 3", tables)
	}
	for _, k := range Kinds() {
		if !seen[k] {
			t.Errorf("%v: no row in PROTOCOL.md's byte tables", k)
		}
	}
}

// innerSize is the wire size of an envelope's inner message, 0 for any
// other kind.
func innerSize(m Message) int {
	switch v := m.(type) {
	case NodeForward:
		return EncodedSize(v.Inner)
	case NodeRelay:
		return EncodedSize(v.Inner)
	case NodeDeliver:
		return EncodedSize(v.Inner)
	}
	return 0
}
