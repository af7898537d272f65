package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzRouteRequestDecode holds the DestLists decoder to encoding/json's
// own decode of a plain [][]int, through the json.Decoder the handlers
// use: both accept or both reject a body, and on accept they give the
// same n and the same rows, nil and empty rows included.
func FuzzRouteRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"n":8,"dests":[[0,1],null,[3,4,7],[2],null,null,null,[5,6]]}`,
		`{"n":8,"dests":[[],[1],[]]}`,
		`{"n":8,"dests":[]}`,
		`{"n":8,"dests":null}`,
		`{"n":8}`,
		``,
		`{"n":8,"dests":[[-1,-0],[2]]}`,
		`{"n":8,"dests":[[1.5]]}`,
		`{"n":8,"dests":[[1e3]]}`,
		`{"n":8,"dests":[[1E0]]}`,
		`{"n":8,"dests":[[9223372036854775807,-9223372036854775808]]}`,
		`{"n":8,"dests":[[9223372036854775808]]}`,
		`{"n":8,"dests":[[-9223372036854775809]]}`,
		`{"n":8,"dests":[[99999999999999999999999]]}`,
		`{"n":8,"dests":[[1,null,2]]}`,
		`{"n":8,"dests":[["1"]]}`,
		`{"n":8,"dests":["x"]}`,
		`{"n":8,"dests":"x"}`,
		`{"n":8,"dests":[{"a":1}]}`,
		`{"n":8,"dests":[[{}]]}`,
		`{"n":8,"dests":{}}`,
		`{"n":8,"dests":[[true]]}`,
		`{"n":8,"dests":[true]}`,
		`{"n":8,"dests":true}`,
		`{"n":8,"dests":[[[1]]]}`,
		`{"n":8,"dests":[[1],2]}`,
		`{"n":8,"extra":{"dests":[1]},"dests":[[1]]}`,
		`{"N":8,"DESTS":[[1,2]]}`,
		`{"n":8,"Dests":[[1,2,3]],"dests":[[4]],"dEsTs":[[5,null,null]]}`,
		`{"n":8,"dests":[[1,2]],"dests":null,"dests":[[null]]}`,
		`{"n":8,"dests":[[1]]} trailing`,
		`{"n":8,"dests":[[1]]}{"n":4}`,
		` { "n" : 8 , "dests" : [ [ 1 , 2 ] , null , [ ] ] } `,
		`{"n":8,"dests":[[1]]`,
		`{"n":"8","dests":[[1]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got RouteRequest
		gotErr := decodeBody(body, &got)
		var want struct {
			N     int     `json:"n"`
			Dests [][]int `json:"dests"`
		}
		wantErr := decodeBody(body, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: DestLists error %v, encoding/json error %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.N != want.N || !reflect.DeepEqual([][]int(got.Dests), want.Dests) {
			t.Fatalf("%q: DestLists gave n=%d %#v, encoding/json n=%d %#v", body, got.N, got.Dests, want.N, want.Dests)
		}
	})
}

// decodeBody decodes body as decode does, without the validation.
func decodeBody(body []byte, dst any) error {
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(dst); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}
