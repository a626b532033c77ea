package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
)

// RemoteStore is a StoreBackend that proxies through a coordinator's
// HTTP API (GET and PUT /v1/results/{key}), so a worker node — or a
// secondary coordinator — reads and writes the fleet's single
// content-addressed store instead of keeping its own. A PUT whose bytes
// differ from the stored object comes back as 409 with code
// "store_mismatch" and is surfaced as ErrStoreMismatch, preserving the
// integrity semantics of the local store across the network.
//
// The proxy trusts its coordinator (keys are not re-derived from the
// payload — they can't be, a key hashes the job descriptor, not the
// bytes); see API.md for the trusted-fleet caveat.
type RemoteStore struct {
	base string
	hc   *http.Client

	mu   sync.Mutex
	puts int
}

// NewRemoteStore returns a remote store rooted at the coordinator base
// URL (e.g. "http://127.0.0.1:8642"). hc nil means http.DefaultClient.
func NewRemoteStore(base string, hc *http.Client) *RemoteStore {
	return &RemoteStore{base: strings.TrimRight(base, "/"), hc: hc}
}

func (s *RemoteStore) client() *http.Client {
	if s.hc != nil {
		return s.hc
	}
	return http.DefaultClient
}

// remoteAPIError decodes an error response body into a message,
// preferring the envelope and falling back to the raw text.
func remoteAPIError(resp *http.Response) (code, msg string) {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env errorEnvelope
	if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
		return env.Error.Code, env.Error.Message
	}
	return "", string(bytes.TrimSpace(body))
}

// Get fetches the blob under key from the coordinator; a 404 is a miss,
// not an error.
func (s *RemoteStore) Get(key string) ([]byte, bool, error) {
	if !validKey(key) {
		return nil, false, nil
	}
	resp, err := s.client().Get(s.base + "/v1/results/" + url.PathEscape(key))
	if err != nil {
		return nil, false, fmt.Errorf("service: remote store: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, false, fmt.Errorf("service: remote store: %w", err)
		}
		return data, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	}
	_, msg := remoteAPIError(resp)
	return nil, false, fmt.Errorf("service: remote store: GET %s: %s: %s", key[:8], resp.Status, msg)
}

// Put writes the blob through the coordinator. A 409 means the
// coordinator already holds different bytes under the key and maps to
// ErrStoreMismatch, exactly like a local first-write-wins conflict.
func (s *RemoteStore) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("service: remote store: invalid key %q", key)
	}
	req, err := http.NewRequest(http.MethodPut,
		s.base+"/v1/results/"+url.PathEscape(key), bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("service: remote store: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client().Do(req)
	if err != nil {
		return fmt.Errorf("service: remote store: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent:
		s.mu.Lock()
		s.puts++
		s.mu.Unlock()
		return nil
	case http.StatusConflict:
		return fmt.Errorf("%w %s (remote)", ErrStoreMismatch, key)
	}
	_, msg := remoteAPIError(resp)
	return fmt.Errorf("service: remote store: PUT %s: %s: %s", key[:8], resp.Status, msg)
}

// Stats reports blobs this process wrote through the proxy; corruption
// detection happens coordinator-side, so it is always 0 here.
func (s *RemoteStore) Stats() (puts, corruptions int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts, 0
}
