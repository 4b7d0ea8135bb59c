// Package textproc supplies the text-processing substrate of IntelliTag:
// tokenization, vocabularies, TF-IDF and PMI statistics, a lightweight text
// embedder, DBSCAN clustering of question embeddings and an extractive
// answer selector. These replace the pretrained-Transformer text plumbing of
// the paper's data-construction pipeline (Section III-A).
package textproc

import (
	"sort"
	"unicode"
	"unicode/utf8"
)

// Tokenize lowercases s and splits it into word tokens, treating any
// non-letter/non-digit rune as a separator.
func Tokenize(s string) []string {
	var tokens []string
	var buf []byte
	for i := 0; ; {
		buf, i = NextToken(s, i, buf)
		if len(buf) == 0 {
			return tokens
		}
		tokens = append(tokens, string(buf))
	}
}

// NextToken is Tokenize one token at a time, without allocating: it scans s
// from byte offset i, writes the next token's lowercased runes into buf
// (reusing its capacity) and returns the token and the offset to resume
// from. An empty token means s holds no more. Runes are lowercased one at a
// time exactly as strings.ToLower does, and invalid UTF-8 decodes to
// utf8.RuneError, a separator, so the tokens are Tokenize's byte for byte.
func NextToken(s string, i int, buf []byte) ([]byte, int) {
	buf = buf[:0]
	for i < len(s) {
		r, w := utf8.DecodeRuneInString(s[i:])
		i += w
		r = unicode.ToLower(r)
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			buf = utf8.AppendRune(buf, r)
		} else if len(buf) > 0 {
			break
		}
	}
	return buf, i
}

// Vocab is a bidirectional word <-> id mapping. ID 0 is reserved for the
// unknown token.
type Vocab struct {
	byWord map[string]int
	words  []string
}

// UnknownID is the id returned for out-of-vocabulary words.
const UnknownID = 0

// NewVocab returns a vocabulary containing only the unknown token.
func NewVocab() *Vocab {
	return &Vocab{byWord: map[string]int{"<unk>": 0}, words: []string{"<unk>"}}
}

// Add inserts word if absent and returns its id.
func (v *Vocab) Add(word string) int {
	if id, ok := v.byWord[word]; ok {
		return id
	}
	id := len(v.words)
	v.byWord[word] = id
	v.words = append(v.words, word)
	return id
}

// ID returns the id for word, or UnknownID if absent.
func (v *Vocab) ID(word string) int {
	if id, ok := v.byWord[word]; ok {
		return id
	}
	return UnknownID
}

// Word returns the word for id (panics if out of range).
func (v *Vocab) Word(id int) string { return v.words[id] }

// Len returns the vocabulary size including the unknown token.
func (v *Vocab) Len() int { return len(v.words) }

// Encode maps tokens to ids using ID (unknown words map to UnknownID).
func (v *Vocab) Encode(tokens []string) []int {
	ids := make([]int, len(tokens))
	for i, t := range tokens {
		ids[i] = v.ID(t)
	}
	return ids
}

// BuildVocab constructs a vocabulary from documents, keeping words that
// occur at least minCount times, in deterministic frequency-then-lexical
// order.
func BuildVocab(docs [][]string, minCount int) *Vocab {
	counts := map[string]int{}
	for _, doc := range docs {
		for _, w := range doc {
			counts[w]++
		}
	}
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Strings(words)
	type wc struct {
		w string
		c int
	}
	var list []wc
	for _, w := range words {
		if c := counts[w]; c >= minCount {
			list = append(list, wc{w, c})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].c != list[j].c {
			return list[i].c > list[j].c
		}
		return list[i].w < list[j].w
	})
	v := NewVocab()
	for _, e := range list {
		v.Add(e.w)
	}
	return v
}
