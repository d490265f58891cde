//! Properties of the one byte codec (`erbium_model::codec`) that the WAL,
//! checkpoints, page spills and ERSP all rely on: exact round-trips, an
//! error (never a panic) on truncated or corrupted input, allocations
//! bounded by the input, and a nesting cap that protects the stack.

use erbium_model::codec::{
    crc32, crc32_update, frame_header, get_row, get_value, put_row, put_u32, put_value,
    CodecError, Cursor, MAX_DEPTH,
};
use erbium_model::Value;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records, per thread, the largest single allocation requested, so the
/// tests can assert that decoding corrupt input never pre-allocates from a
/// length field it has not checked.
struct Watermark;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call forwards unchanged to `System`; the bookkeeping touches
// only a const-initialized, destructor-free thread-local `Cell`.
unsafe impl GlobalAlloc for Watermark {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Watermark = Watermark;

/// Decode `bytes` as a row, returning the result and the largest single
/// allocation the decode made.
fn decode_watched(bytes: &[u8]) -> (Result<Vec<Value>, CodecError>, usize) {
    LARGEST.with(|l| l.set(0));
    let mut c = Cursor::new(bytes);
    let row = get_row(&mut c).and_then(|row| c.finish().map(|()| row));
    (row, LARGEST.with(Cell::get))
}

/// The most one decode may allocate at once: a `Vec<Value>` with one element
/// per remaining input byte.
fn alloc_bound(input_len: usize) -> usize {
    input_len * std::mem::size_of::<Value>() + 64
}

fn value(depth: u32) -> BoxedStrategy<Value> {
    let scalar = (0u8..5, any::<i64>(), any::<u64>(), ".{0,6}").prop_map(|(kind, i, bits, s)| {
        match kind {
            0 => Value::Null,
            1 => Value::Bool(i & 1 == 0),
            2 => Value::Int(i),
            3 => Value::Float(f64::from_bits(bits)),
            _ => Value::str(s),
        }
    });
    if depth == 0 {
        return scalar.boxed();
    }
    (0u8..4, scalar, prop::collection::vec(value(depth - 1), 0..4))
        .prop_map(|(kind, scalar, items)| match kind {
            0 => Value::Array(items),
            1 => Value::Struct(items),
            _ => scalar,
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn rows_round_trip_and_malformed_input_is_an_error(
        row in prop::collection::vec(value(4), 0..5),
    ) {
        let mut bytes = Vec::new();
        put_row(&mut bytes, &row);

        // Bit-exact round trip: re-encoding the decoded row reproduces the
        // input (equality alone would let Int(1) pass for Float(1.0)).
        let (back, _) = decode_watched(&bytes);
        let back = back.expect("a valid encoding decodes");
        prop_assert_eq!(&back, &row);
        let mut again = Vec::new();
        put_row(&mut again, &back);
        prop_assert_eq!(&again, &bytes);

        for cut in 0..bytes.len() {
            let (res, largest) = decode_watched(&bytes[..cut]);
            prop_assert!(res.is_err(), "strict prefix {} of {} decoded", cut, bytes.len());
            prop_assert!(largest <= alloc_bound(cut));
        }
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut flipped = bytes.clone();
                flipped[i] ^= mask;
                let (_, largest) = decode_watched(&flipped); // Ok or Err, never a panic
                prop_assert!(
                    largest <= alloc_bound(flipped.len()),
                    "flip at {} allocated {} for {} input bytes", i, largest, flipped.len()
                );
            }
        }
    }
}

/// `levels` array tags, each holding one element, around a `Null`.
fn nested_arrays(levels: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..levels {
        bytes.push(5);
        put_u32(&mut bytes, 1);
    }
    bytes.push(0);
    bytes
}

#[test]
fn nesting_is_capped_not_recursed() {
    let deep = nested_arrays(100_000);
    assert_eq!(get_value(&mut Cursor::new(&deep)), Err(CodecError::TooDeep));

    // The cap is exact: a scalar inside MAX_DEPTH containers decodes and
    // round-trips, one more container does not.
    let ok = nested_arrays(MAX_DEPTH as usize);
    let v = get_value(&mut Cursor::new(&ok)).expect("nesting at the cap decodes");
    let mut again = Vec::new();
    put_value(&mut again, &v);
    assert_eq!(again, ok);
    let over = nested_arrays(MAX_DEPTH as usize + 1);
    assert_eq!(get_value(&mut Cursor::new(&over)), Err(CodecError::TooDeep));
}

#[test]
fn counts_are_checked_against_the_remaining_input() {
    // A row claiming u32::MAX values in a 4-byte input.
    let (res, largest) = decode_watched(&u32::MAX.to_le_bytes());
    assert_eq!(res, Err(CodecError::CountExceedsInput));
    assert!(largest <= alloc_bound(4));
    // `count(k)` divides the remaining bytes by the minimum element size.
    let mut c = Cursor::new(&[2, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9]);
    assert_eq!(c.count(4), Ok(2));
    let mut c = Cursor::new(&[3, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9]);
    assert_eq!(c.count(4), Err(CodecError::CountExceedsInput));
}

#[test]
fn golden_value_bytes() {
    let row = vec![
        Value::Int(-7),
        Value::Float(1.5),
        Value::str("hé"),
        Value::Bool(true),
        Value::Null,
        Value::Array(vec![Value::Int(1), Value::Null]),
        Value::Struct(vec![Value::str("a"), Value::Float(f64::NAN)]),
    ];
    let mut bytes = Vec::new();
    put_row(&mut bytes, &row);
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "0700000002f9ffffffffffffff03000000000000f83f040300000068c3a901010005020000000201000000\
         0000000000060200000004010000006103000000000000f87f"
    );
    // A bool byte other than 0/1 is not a value the encoder writes.
    assert_eq!(
        get_value(&mut Cursor::new(&[1, 2])),
        Err(CodecError::BadTag { what: "bool", tag: 2 })
    );
}

#[test]
fn crc_and_frames() {
    // Standard check value for CRC-32/IEEE.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);

    let mut framed = frame_header(b"payload").to_vec();
    framed.extend_from_slice(b"payload");
    let mut c = Cursor::new(&framed);
    assert_eq!(c.frame(), Ok(&b"payload"[..]));
    assert!(c.is_done());
    let last = framed.len() - 1;
    framed[last] ^= 1;
    assert_eq!(Cursor::new(&framed).frame(), Err(CodecError::Checksum));
    assert_eq!(Cursor::new(&framed[..last]).frame(), Err(CodecError::Truncated));
}

/// Bit-at-a-time CRC-32/IEEE straight from the definition: the reference the
/// table-driven implementation must agree with.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    !crc
}

/// Deterministic pseudo-random bytes (xorshift64*).
fn noise(n: usize, mut seed: u64) -> Vec<u8> {
    (0..n)
        .map(|_| {
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

#[test]
fn crc32_matches_the_bitwise_reference() {
    // Every length 0..=256 at 16 start offsets, so every split between the
    // 16-byte blocks and the byte-wise tail meets every alignment.
    let buf = noise(256 + 16, 7);
    for offset in 0..16 {
        for len in 0..=256 {
            let bytes = &buf[offset..offset + len];
            assert_eq!(crc32(bytes), crc32_bitwise(bytes), "offset {offset}, len {len}");
        }
    }
    let big = noise(1 << 20, 42);
    assert_eq!(crc32(&big), crc32_bitwise(&big), "1 MiB of random bytes");

    // Streaming in uneven pieces gives the one-shot value.
    let mut state = 0;
    for piece in big.chunks(65_537) {
        state = crc32_update(state, piece);
    }
    assert_eq!(state, crc32(&big));
    assert_eq!(crc32_update(crc32(b"12345"), b"6789"), 0xCBF4_3926);
    assert_eq!(crc32_update(0, b""), 0);
}
