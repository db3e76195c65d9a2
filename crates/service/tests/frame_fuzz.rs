//! Protocol fuzz tests: the framing decoder and request decoder must
//! never panic, whatever bytes arrive, and their verdicts must not
//! depend on how the stream is chunked.
//!
//! Two layers of coverage:
//!
//! * seeded random fuzz — random byte soup, mutated valid frames, and
//!   valid frames under random chunkings, thousands of cases per run,
//!   fully deterministic (`msrnet-rng`, fixed seeds);
//! * a pinned corpus (`tests/corpus/*.bin`) — one file per failure
//!   class found interesting during development, each asserted down to
//!   the exact error classification so regressions name the file.
//!
//! The decoder under test is the production read path: both
//! `Server::handle_connection` and `Client::request` feed sockets
//! through this exact `FrameDecoder`.

use msrnet_rng::rngs::StdRng;
use msrnet_rng::{Rng, SeedableRng};
use msrnet_service::frame::{Frame, FrameDecoder, FrameError, DEFAULT_MAX_PAYLOAD, HEADER_LEN};
use msrnet_service::proto::{ProtoError, Request, Response};
use msrnet_service::ErrorCode;

/// Feeds `bytes` to a fresh decoder in the given chunk sizes and
/// collects every verdict (frames and the terminal error, if any).
fn drive(bytes: &[u8], chunks: &[usize], max_payload: u32) -> (Vec<Frame>, Option<FrameError>) {
    let mut dec = FrameDecoder::new(max_payload);
    let mut frames = Vec::new();
    let mut fed = 0;
    let mut chunk_iter = chunks.iter().copied().chain(std::iter::repeat(usize::MAX));
    while fed < bytes.len() {
        let n = chunk_iter.next().expect("infinite").min(bytes.len() - fed).max(1);
        dec.feed(&bytes[fed..fed + n]);
        fed += n;
        loop {
            match dec.next_frame() {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => break,
                Err(e) => return (frames, Some(e)),
            }
        }
    }
    (frames, None)
}

/// Random chunk sizes covering the 1-byte drip and big-gulp extremes.
fn random_chunks(rng: &mut StdRng, total: usize) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut left = total;
    while left > 0 {
        let n = match rng.gen_range(0..3u32) {
            0 => 1,
            1 => rng.gen_range(1..=8usize),
            _ => rng.gen_range(1..=left.max(1)),
        }
        .min(left);
        chunks.push(n);
        left -= n;
    }
    chunks
}

#[test]
fn random_byte_soup_never_panics_and_is_chunking_invariant() {
    let mut rng = StdRng::seed_from_u64(0x5EED_F00D);
    for case in 0..2000 {
        let len = rng.gen_range(0..=64usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let baseline = drive(&bytes, &[usize::MAX], DEFAULT_MAX_PAYLOAD);
        for _ in 0..4 {
            let chunks = random_chunks(&mut rng, bytes.len());
            let got = drive(&bytes, &chunks, DEFAULT_MAX_PAYLOAD);
            assert_eq!(
                got, baseline,
                "case {case}: verdict changed under chunking {chunks:?} for {bytes:02x?}"
            );
        }
    }
}

#[test]
fn valid_frames_survive_any_chunking() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..500 {
        let count = rng.gen_range(1..=4usize);
        let mut stream = Vec::new();
        let mut sent = Vec::new();
        for _ in 0..count {
            let kind = rng.next_u64() as u8;
            let len = rng.gen_range(0..=128usize);
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let frame = Frame { kind, payload };
            stream.extend(frame.encode(DEFAULT_MAX_PAYLOAD).expect("under cap"));
            sent.push(frame);
        }
        let chunks = random_chunks(&mut rng, stream.len());
        let (frames, err) = drive(&stream, &chunks, DEFAULT_MAX_PAYLOAD);
        assert!(err.is_none(), "valid stream errored: {err:?}");
        assert_eq!(frames, sent);
    }
}

#[test]
fn mutated_valid_frames_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xBAD_CAFE);
    let reqs = [
        Request::Stats { deadline_ms: u32::MAX },
        Request::Close { deadline_ms: 5, session: 42 },
        Request::Open {
            deadline_ms: u32::MAX,
            root: 1,
            driver_cost: 0.5,
            name: "n.msr".into(),
            pruning: "naive".into(),
            msr: "# stub\n".into(),
        },
    ];
    for case in 0..2000 {
        let req = &reqs[case % reqs.len()];
        let mut bytes = req.encode().encode(DEFAULT_MAX_PAYLOAD).expect("encode");
        // Flip 1–4 random bits (or truncate) and decode the result.
        if rng.gen_bool(0.2) {
            let keep = rng.gen_range(0..=bytes.len());
            bytes.truncate(keep);
        } else {
            for _ in 0..rng.gen_range(1..=4u32) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        let (frames, _err) = drive(&bytes, &[usize::MAX], DEFAULT_MAX_PAYLOAD);
        for f in &frames {
            // Whatever framed, request decoding must classify it
            // without panicking.
            let _ = Request::decode(f);
            let _ = Response::decode(f);
        }
    }
}

#[test]
fn decoder_poisons_after_error() {
    // After a framing error the stream position is untrustworthy: the
    // decoder must keep reporting the error, not resynchronize.
    let mut dec = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
    dec.feed(&[0x58, 0x58, 1, 1, 0, 0, 0, 0]);
    let first = dec.next_frame().expect_err("bad magic");
    let again = dec.next_frame().expect_err("still poisoned");
    assert_eq!(first, again);
    // Even if valid bytes arrive afterwards.
    let good = Frame { kind: 7, payload: vec![] }
        .encode(DEFAULT_MAX_PAYLOAD)
        .expect("encode");
    dec.feed(&good);
    assert!(dec.next_frame().is_err());
}

// --- pinned corpus ---------------------------------------------------

/// Replays one corpus file against a fresh decoder (byte-at-a-time, the
/// harshest chunking) and returns its verdict.
fn replay(bytes: &[u8]) -> (Vec<Frame>, Option<FrameError>) {
    let chunks: Vec<usize> = vec![1; bytes.len()];
    drive(bytes, &chunks, DEFAULT_MAX_PAYLOAD)
}

#[test]
fn corpus_bad_magic() {
    let (frames, err) = replay(include_bytes!("corpus/bad-magic.bin"));
    assert!(frames.is_empty());
    assert!(
        matches!(err, Some(FrameError::BadMagic { got: 0x58, at: 0 })),
        "{err:?}"
    );
}

#[test]
fn corpus_bad_version() {
    let (frames, err) = replay(include_bytes!("corpus/bad-version.bin"));
    assert!(frames.is_empty());
    assert!(matches!(err, Some(FrameError::BadVersion { got: 2 })), "{err:?}");
}

#[test]
fn corpus_oversized_announcement() {
    // The length field alone must trigger the error — no 4 GiB buffer
    // is ever allocated.
    let (frames, err) = replay(include_bytes!("corpus/oversized.bin"));
    assert!(frames.is_empty());
    assert!(
        matches!(
            err,
            Some(FrameError::Oversized { len: 0xFFFF_FFFF, limit: DEFAULT_MAX_PAYLOAD })
        ),
        "{err:?}"
    );
}

#[test]
fn corpus_truncated_frame_reports_missing_bytes() {
    let bytes: &[u8] = include_bytes!("corpus/truncated-open.bin");
    let mut dec = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
    dec.feed(bytes);
    assert!(dec.next_frame().expect("incomplete, not an error").is_none());
    assert!(dec.mid_frame(), "a partial frame is pending");
    let fin = dec.finish().expect_err("truncated");
    // Announced 32 payload bytes, delivered 4 of them.
    assert_eq!(fin, FrameError::Truncated { missing: 28 });
}

#[test]
fn corpus_unknown_kind_is_typed() {
    let (frames, err) = replay(include_bytes!("corpus/unknown-kind.bin"));
    assert!(err.is_none(), "framing layer accepts unknown kinds: {err:?}");
    assert_eq!(frames.len(), 1);
    let e = Request::decode(&frames[0]).expect_err("unknown kind");
    assert_eq!(e, ProtoError::UnknownKind { kind: 0x7F });
    assert_eq!(e.code(), ErrorCode::UnknownKind);
}

#[test]
fn corpus_short_open_is_bad_payload() {
    let (frames, err) = replay(include_bytes!("corpus/short-open.bin"));
    assert!(err.is_none());
    assert_eq!(frames.len(), 1);
    let e = Request::decode(&frames[0]).expect_err("short body");
    assert!(matches!(e, ProtoError::BadPayload { field: "deadline", .. }), "{e:?}");
    assert_eq!(e.code(), ErrorCode::BadPayload);
}

#[test]
fn corpus_trailing_bytes_after_close_are_rejected() {
    let (frames, err) = replay(include_bytes!("corpus/trailing-close.bin"));
    assert!(err.is_none());
    assert_eq!(frames.len(), 1);
    let e = Request::decode(&frames[0]).expect_err("trailing junk");
    assert!(
        matches!(e, ProtoError::BadPayload { field: "trailing bytes", .. }),
        "{e:?}"
    );
}

#[test]
fn corpus_good_frame_then_bad_magic() {
    // The valid STATS frame decodes; the corrupt second header then
    // poisons the stream at its first magic byte.
    let bytes: &[u8] = include_bytes!("corpus/good-then-bad-magic.bin");
    assert_eq!(bytes.len(), 2 * (HEADER_LEN + 4), "corpus file shape");
    let (frames, err) = replay(bytes);
    assert_eq!(frames.len(), 1);
    assert_eq!(
        Request::decode(&frames[0]).expect("valid stats"),
        Request::Stats { deadline_ms: u32::MAX }
    );
    assert!(
        matches!(err, Some(FrameError::BadMagic { got: 0x51, at: 0 })),
        "{err:?}"
    );
}
