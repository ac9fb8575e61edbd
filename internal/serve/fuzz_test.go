package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"testing"
)

// FuzzParseInfer pins the /infer decoding contract on arbitrary bodies and
// ?model= values: parseInfer either rejects the submission with 400 or 413
// and an error, or returns a request naming a model with a count of at
// least 1. Its seed inputs are the files in testdata/fuzz/FuzzParseInfer.
func FuzzParseInfer(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, model string) {
		r := &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: "/infer", RawQuery: url.Values{"model": {model}}.Encode()},
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		req, status, err := parseInfer(r)
		if err != nil {
			if status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge {
				t.Fatalf("rejected with status %d, want 400 or 413 (err %v)", status, err)
			}
			return
		}
		if req.Model == "" || req.Count < 1 {
			t.Fatalf("accepted %+v (status %d): want a model and a count of at least 1", req, status)
		}
	})
}
