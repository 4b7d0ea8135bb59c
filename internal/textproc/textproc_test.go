package textproc

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"intellitag/internal/mat"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("How to change PASSWORD?  quickly-now")
	want := []string{"how", "to", "change", "password", "quickly", "now"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize("  ?! "); len(got) != 0 {
		t.Fatalf("Tokenize punct = %v", got)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("支付宝 password")
	if len(got) != 2 || got[0] != "支付宝" {
		t.Fatalf("Tokenize unicode = %v", got)
	}
}

func TestVocabRoundTrip(t *testing.T) {
	v := NewVocab()
	id := v.Add("hello")
	if id == UnknownID {
		t.Fatal("Add returned the unknown id")
	}
	if v.ID("hello") != id || v.Word(id) != "hello" {
		t.Fatal("round trip failed")
	}
	if v.ID("missing") != UnknownID {
		t.Fatal("missing word should map to UnknownID")
	}
	if again := v.Add("hello"); again != id {
		t.Fatal("re-Add changed the id")
	}
}

func TestVocabEncode(t *testing.T) {
	v := NewVocab()
	v.Add("a")
	v.Add("b")
	got := v.Encode([]string{"a", "zz", "b"})
	if got[0] == UnknownID || got[1] != UnknownID || got[2] == UnknownID {
		t.Fatalf("Encode = %v", got)
	}
}

func TestBuildVocabMinCount(t *testing.T) {
	docs := [][]string{{"a", "a", "b"}, {"a", "c"}}
	v := BuildVocab(docs, 2)
	if v.ID("a") == UnknownID {
		t.Fatal("frequent word dropped")
	}
	if v.ID("b") != UnknownID || v.ID("c") != UnknownID {
		t.Fatal("rare words kept")
	}
}

func TestBuildVocabDeterministicOrder(t *testing.T) {
	docs := [][]string{{"x", "y", "z", "x"}}
	a := BuildVocab(docs, 1)
	b := BuildVocab(docs, 1)
	for _, w := range []string{"x", "y", "z"} {
		if a.ID(w) != b.ID(w) {
			t.Fatal("vocab ids not deterministic")
		}
	}
	if a.ID("x") != 1 {
		t.Fatalf("most frequent word should get id 1, got %d", a.ID("x"))
	}
}

func TestCorpusStatsCounts(t *testing.T) {
	docs := [][]string{{"a", "b", "a"}, {"b", "c"}}
	s := NewCorpusStats(docs, 5)
	if s.TermFreq["a"] != 2 || s.DocFreq["a"] != 1 || s.DocFreq["b"] != 2 {
		t.Fatalf("stats wrong: tf=%v df=%v", s.TermFreq, s.DocFreq)
	}
	if s.NumDocs != 2 {
		t.Fatalf("NumDocs = %d", s.NumDocs)
	}
}

func TestIDFOrdering(t *testing.T) {
	docs := [][]string{{"common", "rare1"}, {"common"}, {"common"}}
	s := NewCorpusStats(docs, 5)
	if s.IDF("common") >= s.IDF("rare1") {
		t.Fatal("common word should have lower IDF")
	}
}

func TestPMICooccurringPairHigher(t *testing.T) {
	docs := [][]string{
		{"credit", "card", "limit"},
		{"credit", "card", "apply"},
		{"credit", "card", "cancel"},
		{"weather", "today"},
	}
	s := NewCorpusStats(docs, 5)
	if s.PMI("credit", "card") <= s.PMI("credit", "weather") {
		t.Fatal("PMI of co-occurring pair should exceed never-co-occurring pair")
	}
	if s.PMI("credit", "weather") != -10 {
		t.Fatalf("unseen pair PMI = %v, want floor", s.PMI("credit", "weather"))
	}
}

func TestPMISymmetric(t *testing.T) {
	docs := [][]string{{"a", "b"}, {"a", "b"}, {"c"}}
	s := NewCorpusStats(docs, 5)
	if s.PMI("a", "b") != s.PMI("b", "a") {
		t.Fatal("PMI not symmetric")
	}
}

func TestAvgPMI(t *testing.T) {
	docs := [][]string{{"a", "b", "c"}, {"a", "b"}}
	s := NewCorpusStats(docs, 5)
	if got := s.AvgPMI([]string{"solo"}); got != 0 {
		t.Fatalf("single-word AvgPMI = %v", got)
	}
	if s.AvgPMI([]string{"a", "b"}) <= s.AvgPMI([]string{"a", "zz"}) {
		t.Fatal("co-occurring pair should average higher")
	}
}

func TestTFIDF(t *testing.T) {
	docs := [][]string{{"a", "b"}, {"b"}}
	s := NewCorpusStats(docs, 5)
	doc := map[string]int{"a": 2, "b": 1}
	if s.TFIDF("a", doc, 3) <= s.TFIDF("b", doc, 3) {
		t.Fatal("rarer+more frequent term should score higher")
	}
	if s.TFIDF("a", doc, 0) != 0 {
		t.Fatal("empty doc should score 0")
	}
}

func TestEmbedderDeterministic(t *testing.T) {
	docs := [][]string{{"hello", "world"}}
	e1 := NewEmbedder(16, docs)
	e2 := NewEmbedder(16, docs)
	a, b := e1.EmbedText("hello world"), e2.EmbedText("hello world")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedder not deterministic")
		}
	}
}

func TestEmbedderUnitNorm(t *testing.T) {
	e := NewEmbedder(16, [][]string{{"a", "b", "c"}})
	v := e.EmbedText("a b")
	if math.Abs(mat.Norm(v)-1) > 1e-9 {
		t.Fatalf("norm = %v", mat.Norm(v))
	}
	if mat.Norm(e.Embed(nil)) != 0 {
		t.Fatal("empty input should embed to zero")
	}
}

func TestEmbedderTopicalSimilarity(t *testing.T) {
	// Questions about the same topic should be closer than cross-topic.
	var docs [][]string
	for i := 0; i < 20; i++ {
		docs = append(docs,
			[]string{"credit", "card", "limit", "bank"},
			[]string{"credit", "card", "apply", "bank"},
			[]string{"shipping", "order", "logistics", "delivery"},
			[]string{"shipping", "order", "cancel", "delivery"},
		)
	}
	e := NewEmbedder(32, docs)
	a := e.EmbedText("credit card limit")
	b := e.EmbedText("credit card apply")
	c := e.EmbedText("shipping order delivery")
	if mat.CosineSim(a, b) <= mat.CosineSim(a, c) {
		t.Fatalf("same-topic sim %v <= cross-topic sim %v",
			mat.CosineSim(a, b), mat.CosineSim(a, c))
	}
}

func TestDBSCANSeparatesClusters(t *testing.T) {
	// Two tight clusters on orthogonal axes plus an outlier.
	mk := func(base []float64, jitter float64, g *mat.RNG) []float64 {
		v := make([]float64, len(base))
		for i := range v {
			v[i] = base[i] + g.NormFloat64()*jitter
		}
		n := mat.Norm(v)
		for i := range v {
			v[i] /= n
		}
		return v
	}
	g := mat.NewRNG(1)
	var pts [][]float64
	for i := 0; i < 10; i++ {
		pts = append(pts, mk([]float64{1, 0, 0, 0}, 0.05, g))
	}
	for i := 0; i < 10; i++ {
		pts = append(pts, mk([]float64{0, 1, 0, 0}, 0.05, g))
	}
	pts = append(pts, []float64{0, 0, 0, 1}) // outlier
	labels := DBSCAN(pts, 0.1, 3)
	if labels[0] == Noise || labels[10] == Noise {
		t.Fatal("cluster members labeled noise")
	}
	if labels[0] == labels[10] {
		t.Fatal("distinct clusters merged")
	}
	for i := 1; i < 10; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("cluster 0 split: labels %v", labels[:10])
		}
	}
	if labels[20] != Noise {
		t.Fatalf("outlier labeled %d, want Noise", labels[20])
	}
}

func TestDBSCANAllNoiseWhenSparse(t *testing.T) {
	pts := [][]float64{{1, 0}, {0, 1}, {-1, 0}}
	labels := DBSCAN(pts, 0.01, 2)
	for _, l := range labels {
		if l != Noise {
			t.Fatalf("labels = %v", labels)
		}
	}
}

func TestClusterMembers(t *testing.T) {
	members := ClusterMembers([]int{0, 1, 0, Noise, 1})
	if len(members[0]) != 2 || len(members[1]) != 2 {
		t.Fatalf("members = %v", members)
	}
	if _, ok := members[Noise]; ok {
		t.Fatal("noise included in members")
	}
}

// Property: DBSCAN labels are a partition — every non-noise label appears
// with at least one core point, and label values are contiguous from 0.
func TestDBSCANLabelContiguityProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		g := mat.NewRNG(seed)
		n := 5 + g.Intn(20)
		pts := make([][]float64, n)
		for i := range pts {
			v := []float64{g.NormFloat64(), g.NormFloat64(), g.NormFloat64()}
			nn := mat.Norm(v)
			if nn == 0 {
				v = []float64{1, 0, 0}
				nn = 1
			}
			for j := range v {
				v[j] /= nn
			}
			pts[i] = v
		}
		labels := DBSCAN(pts, 0.2, 3)
		maxLabel := -1
		for _, l := range labels {
			if l < Noise {
				return false
			}
			if l > maxLabel {
				maxLabel = l
			}
		}
		seen := make([]bool, maxLabel+1)
		for _, l := range labels {
			if l >= 0 {
				seen[l] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAnswerSelector(t *testing.T) {
	replies := []string{
		"You can change your password in the settings page",
		"Our delivery takes three to five days",
		"Please contact support",
	}
	var tokenized [][]string
	for _, r := range replies {
		tokenized = append(tokenized, Tokenize(r))
	}
	sel := NewAnswerSelector(tokenized)
	if got := sel.SelectAnswer("how to change password", replies); got != 0 {
		t.Fatalf("SelectAnswer = %d, want 0", got)
	}
	if got := sel.SelectAnswer("zzz qqq", replies); got != -1 {
		t.Fatalf("no-overlap SelectAnswer = %d, want -1", got)
	}
}

func TestAnswerSelectorLengthPenalty(t *testing.T) {
	long := make([]string, 100)
	for i := range long {
		long[i] = "filler"
	}
	long[0] = "password"
	short := []string{"change", "password", "here"}
	sel := NewAnswerSelector([][]string{long, short})
	q := Tokenize("change password")
	if sel.Score(q, long) >= sel.Score(q, short) {
		t.Fatal("long reply should be penalized")
	}
}

func TestNormalizeQuestion(t *testing.T) {
	if NormalizeQuestion("How  TO Change?") != "how to change" {
		t.Fatalf("got %q", NormalizeQuestion("How  TO Change?"))
	}
}

// referenceTokenize is the strings.ToLower + strings.Builder tokenizer that
// NextToken replaced, kept as its specification.
func referenceTokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// TestTokenizeMatchesReference compares the tokenizer with its reference on
// hand-picked edge cases (case mapping outside ASCII, title case, non-Latin
// digits, symbols whose lowercase is still a symbol, invalid UTF-8) and on
// seeded random strings drawn from the same alphabet.
func TestTokenizeMatchesReference(t *testing.T) {
	cases := []string{
		"", " ", "How to change PASSWORD?  quickly-now", "支付宝 password",
		"ÀÉÎÕÜ ß ǅungla İstanbul ΣΊΣΥΦΟΣ", "Ⅻ ⅻ Ⓐⓑ ١٢٣ 4x4", "a\xffb \xc3 \xe2\x82", "emoji🙂mid",
		"İı K K", "tab\tnew\nline", "x", "--", "ABC123def",
	}
	alphabet := []rune("aZ09 _-.?ÀßǅİıΣσςKⅫⓐ١🙂支�\t")
	rng := mat.NewRNG(13)
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			if rng.Intn(16) == 0 {
				b.WriteByte(byte(0x80 + rng.Intn(0x80))) // stray continuation / lead byte
				continue
			}
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		cases = append(cases, b.String())
	}
	for _, s := range cases {
		got, want := Tokenize(s), referenceTokenize(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
	}
}
