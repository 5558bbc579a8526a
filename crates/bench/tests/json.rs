//! Unit tests of `darsie_bench::json`, the writer behind every `--json`
//! document, the run manifest and the Perfetto trace. The escaping cases
//! are the bytes the reports have always printed: `\n`, `\t` and `\r` by
//! name, other controls as `\u00XX`, everything else verbatim.

use darsie_bench::json::{escape, object, Fixed, Hex};
use std::collections::BTreeMap;

fn escaped(s: &str) -> String {
    let mut out = String::new();
    escape(&mut out, s);
    out
}

#[test]
fn escape_names_three_controls_hex_escapes_the_rest_and_passes_non_ascii() {
    assert_eq!(escaped("plain"), "plain");
    assert_eq!(escaped("a\"b\\c"), "a\\\"b\\\\c");
    assert_eq!(escaped("l1\nl2\tx\r"), "l1\\nl2\\tx\\r");
    assert_eq!(escaped("\u{1}\u{1f}"), "\\u0001\\u001f");
    assert_eq!(escaped("µs → ×2 \u{7f}"), "µs → ×2 \u{7f}", "non-ASCII passes through");
}

#[test]
fn scopes_balance_and_separate() {
    let doc = object(|o| {
        o.obj("empty_obj", |_| {}).arr("empty_arr", |_| {});
        o.arr("nested", |a| {
            a.obj(|_| {}).item([0u32; 0]).item(&[1u64, 2][..]);
        });
        o.field("key \"q\"", "v\n").opt_obj("none", None::<u32>, |_, _| {});
        o.opt_obj("some", Some(3u32), |o, v| {
            o.field("v", v);
        });
    });
    assert_eq!(
        doc,
        r#"{"empty_obj":{},"empty_arr":[],"nested":[{},[],[1,2]],"key \"q\"":"v\n","none":null,"some":{"v":3}}"#
    );
}

#[test]
fn values_render_as_the_reports_print_them() {
    let mut map = BTreeMap::new();
    map.insert("V302", 2usize);
    map.insert("S401", 0);
    let doc = object(|o| {
        o.field("none", None::<u64>).field("some", Some(7usize)).field("neg", -3i32);
        o.field("ok", true).field("map", &map).field("strs", ["a", "b"]);
        o.field("f3", Fixed(2.0 / 3.0, 3)).field("f4", Fixed(1.5, 4));
        o.field("f6", Fixed(0.1234567, 6)).field("f0", Fixed(1234.6, 0));
        o.field("hex", Hex(0xdead_beef_0000_0001)).field("zero", Hex(0));
    });
    assert_eq!(
        doc,
        "{\"none\":null,\"some\":7,\"neg\":-3,\"ok\":true,\
         \"map\":{\"S401\":0,\"V302\":2},\"strs\":[\"a\",\"b\"],\
         \"f3\":0.667,\"f4\":1.5000,\"f6\":0.123457,\"f0\":1235,\
         \"hex\":\"0xdeadbeef00000001\",\"zero\":\"0x0000000000000000\"}"
    );
}
