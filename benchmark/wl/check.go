package wl

import (
	"encoding/json"
	"fmt"
)

// RankedTag is one entry of a recommendation panel.
type RankedTag struct {
	Tag   int     `json:"tag"`
	Score float64 `json:"score"`
}

// answer is the part of the server's JSON answers the checker reads.
type answer struct {
	Tags  []RankedTag `json:"tags"`
	Found bool        `json:"found"`
	Match struct {
		RQ int `json:"rq"`
	} `json:"match"`
}

// Checker validates one connection's answers and scores hit_at_5 over them.
// Like the stream it follows, it belongs to a single goroutine.
type Checker struct {
	w        *World
	prev     [TopK]int // tags of the current session's latest panel
	nPrev    int
	havePrev bool
	clicks   int // clicks so far in the current session
	ans      answer

	// hit_at_5 is scored on the model's panels only: a session's first click
	// follows the cold-start popularity panel (or none) and is not counted.
	Steps int // clicks after a session's first
	Hits  int // of those, clicks on a tag of the panel shown just before
}

// NewChecker returns a checker over the world's catalogs.
func NewChecker(w *World) *Checker { return &Checker{w: w} }

// Check scores the request against the session's previous panel, then
// validates the answer: at most k tags, all of the tenant's catalog, no
// duplicates, scores non-increasing; an /ask match must be one of the
// tenant's own RQs. A violation is a failed request.
func (c *Checker) Check(r *Req, status int, body []byte) error {
	if r.First {
		c.havePrev, c.clicks = false, 0
	}
	if r.Kind == Click {
		if c.clicks > 0 && c.havePrev {
			c.Steps++
			for _, t := range c.prev[:c.nPrev] {
				if t == r.Tag {
					c.Hits++
					break
				}
			}
		}
		c.clicks++
	}
	if status != 200 {
		return fmt.Errorf("%s: HTTP %d: %.80s", r.Kind, status, body)
	}
	c.ans.Tags = c.ans.Tags[:0]
	c.ans.Found = false
	if err := json.Unmarshal(body, &c.ans); err != nil {
		return fmt.Errorf("%s: undecodable answer: %v", r.Kind, err)
	}
	if r.Kind == Ask {
		if c.ans.Found {
			rq := c.ans.Match.RQ
			if rq < 0 || rq >= len(c.w.W.RQs) || c.w.W.RQs[rq].Tenant != r.Tenant {
				return fmt.Errorf("ask: matched RQ %d is not tenant %d's", rq, r.Tenant)
			}
		}
		return nil
	}
	if err := ValidateTags(c.w.member[r.Tenant], c.ans.Tags); err != nil {
		return fmt.Errorf("%s tenant %d: %w", r.Kind, r.Tenant, err)
	}
	c.nPrev = len(c.ans.Tags)
	for i, t := range c.ans.Tags {
		c.prev[i] = t.Tag
	}
	c.havePrev = true
	return nil
}

// ValidateTags checks one ranked panel against the tenant's catalog
// membership table.
func ValidateTags(member []bool, tags []RankedTag) error {
	if len(tags) > TopK {
		return fmt.Errorf("%d tags, k is %d", len(tags), TopK)
	}
	for i, t := range tags {
		if t.Tag < 0 || t.Tag >= len(member) || !member[t.Tag] {
			return fmt.Errorf("tag %d is not in the tenant's catalog", t.Tag)
		}
		for _, u := range tags[:i] {
			if u.Tag == t.Tag {
				return fmt.Errorf("tag %d appears twice", t.Tag)
			}
		}
		if i > 0 && t.Score > tags[i-1].Score {
			return fmt.Errorf("scores rise at rank %d (%g after %g)", i, t.Score, tags[i-1].Score)
		}
	}
	return nil
}
