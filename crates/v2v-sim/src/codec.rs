//! Compact binary codec for journey-context snapshots.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic      u32   "RUPS" (0x53505552)
//! version    u8
//! flags      u8    bit 0: vehicle_id present; bit 1: trace context present
//! n_channels u16
//! len_m      u32
//! vehicle_id u64   (only when flag bit 0)
//! trace      16 B  (only when flag bit 1) — [`TraceContext`] wire form:
//!                  trace_id u64, parent_span u32, sender clock u32
//! t0         f64   timestamp of the first metre mark
//! per metre:
//!   heading  i16   radians × 10⁴ (±π fits in ±31 416)
//!   dt       f32   seconds since t0
//!   rssi     u8 × n_channels   (dBm + 110) × 2, clamped to 0..=254;
//!                              255 = missing channel
//! ```
//!
//! One metre of a 194-channel context costs `2 + 4 + 194 = 200` bytes, so a
//! 1 km context is ≈200 KB — the paper quotes 182 KB for its 115-channel
//! prototype plus geometry, same order (§V-B).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rups_core::geo::{GeoSample, GeoTrajectory};
use rups_core::gsm::{GsmTrajectory, PowerVector};
use rups_core::pipeline::ContextSnapshot;
use rups_obs::{Counter, Registry, TraceContext, TRACE_CONTEXT_WIRE_BYTES};

/// Codec magic number ("RUPS" in LE bytes).
pub const MAGIC: u32 = 0x5350_5552;
/// Current codec version.
pub const VERSION: u8 = 1;
/// Flags bit 0: the payload carries a sender vehicle id.
pub const FLAG_VEHICLE_ID: u8 = 0x01;
/// Flags bit 1: the payload carries a piggybacked [`TraceContext`].
///
/// A backward-compatible extension: untraced snapshots encode byte-for-byte
/// as they always did (the bit stays clear), and decoders ignore flag bits
/// they do not know, so pre-extension payloads decode unchanged.
pub const FLAG_TRACE: u8 = 0x02;

/// Decoding/encoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input shorter than its headers/payload claim.
    Truncated,
    /// Bad magic number — not a RUPS snapshot.
    BadMagic,
    /// Unsupported codec version.
    BadVersion(u8),
    /// Structurally valid but semantically impossible payload
    /// (e.g. non-finite or regressing metre timestamps).
    Corrupt(&'static str),
    /// A snapshot offered for encoding whose geographical and GSM halves
    /// disagree on length — it does not describe one trajectory.
    Misaligned {
        /// Metres in the geographical half.
        geo: usize,
        /// Metres in the GSM half.
        gsm: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "snapshot payload truncated"),
            CodecError::BadMagic => write!(f, "bad magic: not a RUPS snapshot"),
            CodecError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            CodecError::Corrupt(why) => write!(f, "corrupt snapshot payload: {why}"),
            CodecError::Misaligned { geo, gsm } => write!(
                f,
                "misaligned snapshot: geo half has {geo} m, gsm half {gsm} m"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Quantises an RSSI in dBm to the wire byte (0.5 dB resolution from
/// −110 dBm). `255` encodes a missing measurement.
#[inline]
pub fn quantise_rssi(dbm: f32) -> u8 {
    if dbm.is_nan() {
        return 255;
    }
    (((dbm + 110.0) * 2.0).round().clamp(0.0, 254.0)) as u8
}

/// Inverse of [`quantise_rssi`]; `255` becomes `NaN` (missing).
#[inline]
pub fn dequantise_rssi(q: u8) -> f32 {
    if q == 255 {
        f32::NAN
    } else {
        q as f32 / 2.0 - 110.0
    }
}

/// Serialises a snapshot into its wire form.
///
/// ```
/// use rups_core::geo::{GeoSample, GeoTrajectory};
/// use rups_core::gsm::{GsmTrajectory, PowerVector};
/// use rups_core::pipeline::ContextSnapshot;
/// use v2v_sim::codec::{decode_snapshot, encode_snapshot};
///
/// let mut geo = GeoTrajectory::new();
/// let mut gsm = GsmTrajectory::new(4);
/// for i in 0..10 {
///     geo.push(GeoSample { heading_rad: 0.0, timestamp_s: i as f64 });
///     gsm.push(&PowerVector::from_fn(4, |ch| Some(-70.0 - ch as f32)));
/// }
/// let snap = ContextSnapshot { vehicle_id: Some(7), geo, gsm, trace: None };
/// let wire = encode_snapshot(&snap);
/// let back = decode_snapshot(&wire).unwrap();
/// assert_eq!(back.vehicle_id, Some(7));
/// assert_eq!(back.len(), 10);
/// ```
pub fn encode_snapshot(snap: &ContextSnapshot) -> Bytes {
    let n_channels = snap.gsm.n_channels();
    // Contract for misaligned input: encode the aligned prefix rather than
    // panicking on out-of-bounds indexing mid-encode (a release build used
    // to do exactly that). Callers that must treat misalignment as an
    // error use [`try_encode_snapshot`].
    let len = snap.gsm.len().min(snap.geo.len());
    let mut buf = BytesMut::with_capacity(32 + len * (6 + n_channels));
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    let mut flags = 0u8;
    if snap.vehicle_id.is_some() {
        flags |= FLAG_VEHICLE_ID;
    }
    // A trace is only carried alongside a sender id: the id + the trace's
    // logical clock are what let receivers verify the trace survived the
    // wire (see `decode_snapshot`), so an anonymous traced payload would be
    // unverifiable and is encoded untraced instead.
    if snap.trace.is_some() && snap.vehicle_id.is_some() {
        flags |= FLAG_TRACE;
    }
    buf.put_u8(flags);
    buf.put_u16_le(n_channels as u16);
    buf.put_u32_le(len as u32);
    if let Some(id) = snap.vehicle_id {
        buf.put_u64_le(id);
    }
    if let (Some(trace), true) = (&snap.trace, snap.vehicle_id.is_some()) {
        buf.put_slice(&trace.to_wire());
    }
    let t0 = snap.geo.samples().first().map_or(0.0, |s| s.timestamp_s);
    buf.put_f64_le(t0);
    for i in 0..len {
        let g = snap.geo.samples()[i];
        buf.put_i16_le((g.heading_rad * 1e4).round().clamp(-32768.0, 32767.0) as i16);
        buf.put_f32_le((g.timestamp_s - t0) as f32);
        for ch in 0..n_channels {
            let v = snap.gsm.channel(ch)[i];
            buf.put_u8(quantise_rssi(v));
        }
    }
    buf.freeze()
}

/// Serialises a snapshot, rejecting one whose geo and GSM halves disagree
/// on length instead of silently encoding the aligned prefix (the
/// [`encode_snapshot`] contract).
pub fn try_encode_snapshot(snap: &ContextSnapshot) -> Result<Bytes, CodecError> {
    if snap.geo.len() != snap.gsm.len() {
        return Err(CodecError::Misaligned {
            geo: snap.geo.len(),
            gsm: snap.gsm.len(),
        });
    }
    Ok(encode_snapshot(snap))
}

/// Parses a snapshot from its wire form.
pub fn decode_snapshot(mut data: &[u8]) -> Result<ContextSnapshot, CodecError> {
    if data.remaining() < 12 {
        return Err(CodecError::Truncated);
    }
    if data.get_u32_le() != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = data.get_u8();
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let flags = data.get_u8();
    let n_channels = data.get_u16_le() as usize;
    let len = data.get_u32_le() as usize;
    if n_channels == 0 && len > 0 {
        return Err(CodecError::Corrupt("zero channels with non-empty context"));
    }
    let vehicle_id = if flags & FLAG_VEHICLE_ID != 0 {
        if data.remaining() < 8 {
            return Err(CodecError::Truncated);
        }
        Some(data.get_u64_le())
    } else {
        None
    };
    let trace = if flags & FLAG_TRACE != 0 {
        if data.remaining() < TRACE_CONTEXT_WIRE_BYTES {
            return Err(CodecError::Truncated);
        }
        let mut wire = [0u8; TRACE_CONTEXT_WIRE_BYTES];
        data.copy_to_slice(&mut wire);
        let t = TraceContext::from_wire(&wire).ok_or(CodecError::Corrupt("bad trace context"))?;
        // Trace ids are self-verifying: the sender mints them as a pure
        // hash of `(vehicle_id, clock)`, so the receiver recomputes the
        // hash and any bit damage to the id, the clock or the sender id
        // shows up as a mismatch. This is what keeps corrupted beacons
        // from planting orphan trace ids in a merged fleet trace.
        let id = vehicle_id.ok_or(CodecError::Corrupt("traced payload without sender id"))?;
        if TraceContext::root(id, t.clock).trace_id != t.trace_id {
            return Err(CodecError::Corrupt("trace does not match its sender"));
        }
        Some(t)
    } else {
        None
    };
    if data.remaining() < 8 + len * (6 + n_channels) {
        return Err(CodecError::Truncated);
    }
    let t0 = data.get_f64_le();
    let mut geo = GeoTrajectory::with_capacity(len);
    let mut gsm = GsmTrajectory::with_capacity(n_channels, len);
    let mut col = vec![f32::NAN; n_channels];
    if !t0.is_finite() {
        return Err(CodecError::Corrupt("non-finite base timestamp"));
    }
    let mut prev_dt = f64::NEG_INFINITY;
    for _ in 0..len {
        let heading = data.get_i16_le() as f64 / 1e4;
        let dt = data.get_f32_le() as f64;
        // Metre marks are recorded in time order; anything else means the
        // payload bytes do not describe a real trajectory.
        if !dt.is_finite() || dt < prev_dt {
            return Err(CodecError::Corrupt("metre timestamps not non-decreasing"));
        }
        prev_dt = dt;
        geo.push(GeoSample {
            heading_rad: heading,
            timestamp_s: t0 + dt,
        });
        for slot in col.iter_mut() {
            *slot = dequantise_rssi(data.get_u8());
        }
        gsm.push(&PowerVector::from_values(col.clone()));
    }
    Ok(ContextSnapshot {
        vehicle_id,
        geo,
        gsm,
        trace,
    })
}

/// Wire size in bytes of a context of `len_m` metres over `n_channels`
/// channels (with a vehicle id, without a trace context — a traced payload
/// adds [`TRACE_CONTEXT_WIRE_BYTES`]).
pub fn encoded_size(len_m: usize, n_channels: usize) -> usize {
    4 + 1 + 1 + 2 + 4 + 8 + 8 + len_m * (6 + n_channels)
}

/// Counted decode front-end: pre-registered `rups_v2v_codec_*` counters
/// recording how incoming payloads fared against [`decode_snapshot`], so a
/// fault-injected run can report *why* the wire path rejected frames.
#[derive(Debug, Clone)]
pub struct CodecMetrics {
    decode_ok: Counter,
    rejected_truncated: Counter,
    rejected_bad_magic: Counter,
    rejected_bad_version: Counter,
    rejected_corrupt: Counter,
}

impl CodecMetrics {
    /// Registers the codec counters in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            decode_ok: registry.counter("rups_v2v_codec_decode_ok"),
            rejected_truncated: registry.counter("rups_v2v_codec_rejected_truncated"),
            rejected_bad_magic: registry.counter("rups_v2v_codec_rejected_bad_magic"),
            rejected_bad_version: registry.counter("rups_v2v_codec_rejected_bad_version"),
            rejected_corrupt: registry.counter("rups_v2v_codec_rejected_corrupt"),
        }
    }

    /// [`decode_snapshot`] plus outcome accounting.
    pub fn decode(&self, data: &[u8]) -> Result<ContextSnapshot, CodecError> {
        let out = decode_snapshot(data);
        match &out {
            Ok(_) => self.decode_ok.inc(),
            Err(CodecError::Truncated) => self.rejected_truncated.inc(),
            Err(CodecError::BadMagic) => self.rejected_bad_magic.inc(),
            Err(CodecError::BadVersion(_)) => self.rejected_bad_version.inc(),
            Err(CodecError::Corrupt(_)) => self.rejected_corrupt.inc(),
            // decode never reports Misaligned (an encode-side error).
            Err(CodecError::Misaligned { .. }) => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(len: usize, n_channels: usize, with_id: bool) -> ContextSnapshot {
        let mut geo = GeoTrajectory::new();
        let mut gsm = GsmTrajectory::new(n_channels);
        for i in 0..len {
            geo.push(GeoSample {
                heading_rad: (i as f64 * 0.01) - 1.5,
                timestamp_s: 100.0 + i as f64 * 0.5,
            });
            gsm.push(&PowerVector::from_fn(n_channels, |ch| {
                ((ch + i) % 5 != 0).then(|| -60.0 - ((ch * 7 + i) % 40) as f32 * 0.5)
            }));
        }
        ContextSnapshot {
            vehicle_id: with_id.then_some(0xDEAD_BEEF),
            geo,
            gsm,
            trace: None,
        }
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let snap = snapshot(50, 24, true);
        let wire = encode_snapshot(&snap);
        let back = decode_snapshot(&wire).unwrap();
        assert_eq!(back.vehicle_id, Some(0xDEAD_BEEF));
        assert_eq!(back.gsm.len(), 50);
        assert_eq!(back.gsm.n_channels(), 24);
        assert_eq!(back.geo.len(), 50);
        for i in 0..50 {
            let a = snap.geo.samples()[i];
            let b = back.geo.samples()[i];
            assert!((a.heading_rad - b.heading_rad).abs() < 1e-4);
            assert!((a.timestamp_s - b.timestamp_s).abs() < 1e-3);
            for ch in 0..24 {
                match (snap.gsm.get(ch, i), back.gsm.get(ch, i)) {
                    (Some(x), Some(y)) => {
                        assert!((x - y).abs() <= 0.25, "rssi {x} → {y}")
                    }
                    (None, None) => {}
                    other => panic!("missing-ness not preserved: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn roundtrip_without_vehicle_id() {
        let snap = snapshot(10, 8, false);
        let back = decode_snapshot(&encode_snapshot(&snap)).unwrap();
        assert_eq!(back.vehicle_id, None);
        assert_eq!(back.gsm.len(), 10);
    }

    #[test]
    fn traced_roundtrip_and_backward_compat() {
        let ctx = TraceContext::root(0xDEAD_BEEF, 42).with_parent(9);
        let plain = snapshot(12, 6, true);
        let traced = plain.clone().with_trace(ctx);

        // The trace context survives the wire byte-exactly.
        let wire = encode_snapshot(&traced);
        assert_eq!(wire.len(), encoded_size(12, 6) + TRACE_CONTEXT_WIRE_BYTES);
        let back = decode_snapshot(&wire).unwrap();
        assert_eq!(back.trace, Some(ctx));
        assert_eq!(back.vehicle_id, plain.vehicle_id);
        assert_eq!(back.len(), plain.len());

        // Backward compatibility both ways: an untraced snapshot encodes
        // byte-for-byte as before the extension (the flag bit stays clear),
        // and those pre-extension bytes decode with `trace: None`.
        let old_wire = encode_snapshot(&plain);
        assert_eq!(old_wire.len(), encoded_size(12, 6));
        assert_eq!(old_wire[5], FLAG_VEHICLE_ID, "only bit 0 set");
        assert_eq!(decode_snapshot(&old_wire).unwrap().trace, None);

        // A payload truncated inside the trace bytes is Truncated, not
        // misparsed as context data.
        let cut = 4 + 1 + 1 + 2 + 4 + 8 + TRACE_CONTEXT_WIRE_BYTES / 2;
        assert_eq!(decode_snapshot(&wire[..cut]), Err(CodecError::Truncated));

        // Trace ids are a pure hash of `(vehicle_id, clock)`, so the
        // decoder recomputes and rejects any bit damage to the id, the
        // clock, or the sender id — corrupted beacons can never plant an
        // orphan trace id in a merged fleet trace.
        let trace_off = 4 + 1 + 1 + 2 + 4 + 8;
        for bit_of in [
            trace_off,                                // trace_id low byte
            trace_off + 7,                            // trace_id high byte
            trace_off + TRACE_CONTEXT_WIRE_BYTES - 1, // clock high byte
            4 + 1 + 1 + 2 + 4,                        // vehicle_id low byte
        ] {
            let mut damaged = wire.to_vec();
            damaged[bit_of] ^= 0x40;
            assert!(
                matches!(decode_snapshot(&damaged), Err(CodecError::Corrupt(_))),
                "flip at offset {bit_of} must be caught"
            );
        }
        // An anonymous snapshot cannot carry a verifiable trace: the
        // infallible encoder silently drops it instead of emitting bytes
        // every decoder would reject.
        let anon = snapshot(12, 6, false).with_trace(ctx);
        let anon_wire = encode_snapshot(&anon);
        assert_eq!(anon_wire[5], 0, "no flags set");
        assert_eq!(decode_snapshot(&anon_wire).unwrap().trace, None);
    }

    #[test]
    fn quantisation_boundaries() {
        assert_eq!(quantise_rssi(f32::NAN), 255);
        assert!(dequantise_rssi(255).is_nan());
        assert_eq!(quantise_rssi(-110.0), 0);
        assert_eq!(dequantise_rssi(0), -110.0);
        // Values below the floor clamp to the floor.
        assert_eq!(quantise_rssi(-150.0), 0);
        // Values above the representable range clamp to 254 (≈ +17 dBm).
        assert_eq!(quantise_rssi(50.0), 254);
        assert_eq!(dequantise_rssi(254), 17.0);
        // Mid-range resolution is 0.5 dB.
        let q = quantise_rssi(-73.26);
        assert!((dequantise_rssi(q) - -73.26).abs() <= 0.25);
    }

    #[test]
    fn size_matches_paper_order_of_magnitude() {
        // 1 km × 194 channels ≈ 200 KB; the paper quotes 182 KB for a 1 km
        // context (§V-B). Same order, slightly larger because we carry the
        // full 194-channel band, not the 115-channel prototype subset.
        let sz = encoded_size(1000, 194);
        assert!(sz > 150_000 && sz < 250_000, "1 km context is {sz} bytes");
        let snap = snapshot(100, 194, true);
        assert_eq!(encode_snapshot(&snap).len(), encoded_size(100, 194));
        // The 115-channel prototype subset stays in the same 100–200 KB
        // band the paper reports (182 KB including their geometry framing).
        let proto = encoded_size(1000, 115);
        assert!(
            (100_000..200_000).contains(&proto),
            "115-channel context is {proto} bytes"
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode_snapshot(&[1, 2, 3]), Err(CodecError::Truncated));
        let mut wire = encode_snapshot(&snapshot(5, 4, true)).to_vec();
        wire[0] ^= 0xFF;
        assert_eq!(decode_snapshot(&wire), Err(CodecError::BadMagic));
        let mut wire = encode_snapshot(&snapshot(5, 4, true)).to_vec();
        wire[4] = 99;
        assert_eq!(decode_snapshot(&wire), Err(CodecError::BadVersion(99)));
        let wire = encode_snapshot(&snapshot(5, 4, true));
        assert_eq!(
            decode_snapshot(&wire[..wire.len() - 3]),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn misaligned_snapshot_is_a_checked_error_not_a_panic() {
        // Build a snapshot whose geo half is one metre short of its gsm
        // half (easy to produce by mixing tails of different lengths).
        let full = snapshot(10, 4, true);
        let misaligned = ContextSnapshot {
            vehicle_id: full.vehicle_id,
            geo: full.geo.tail(9),
            gsm: full.gsm.tail(10),
            trace: None,
        };
        assert_eq!(
            try_encode_snapshot(&misaligned),
            Err(CodecError::Misaligned { geo: 9, gsm: 10 })
        );
        // The infallible entry point encodes the aligned prefix instead of
        // panicking on slice indexing (release-mode behaviour before the
        // fix) — and the result still decodes.
        let wire = encode_snapshot(&misaligned);
        let back = decode_snapshot(&wire).unwrap();
        assert_eq!(back.len(), 9);
        assert_eq!(back.geo.len(), back.gsm.len());
        // Aligned snapshots pass through the fallible path unchanged.
        assert_eq!(try_encode_snapshot(&full).unwrap(), encode_snapshot(&full));
    }

    #[test]
    fn zero_channel_nonempty_payload_rejected() {
        // Hand-craft a header claiming 0 channels but 3 metres of context.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_le_bytes());
        wire.push(VERSION);
        wire.push(0); // no vehicle id
        wire.extend_from_slice(&0u16.to_le_bytes()); // n_channels = 0
        wire.extend_from_slice(&3u32.to_le_bytes()); // len = 3
        wire.extend_from_slice(&0f64.to_le_bytes()); // t0
        wire.extend_from_slice(&[0u8; 18]); // 3 metres × (2 + 4 + 0) bytes
        assert!(matches!(
            decode_snapshot(&wire),
            Err(CodecError::Corrupt(_))
        ));
        // A genuinely empty zero-channel snapshot stays decodable.
        let empty = ContextSnapshot {
            vehicle_id: None,
            geo: GeoTrajectory::new(),
            gsm: GsmTrajectory::new(0),
            trace: None,
        };
        let back = decode_snapshot(&encode_snapshot(&empty)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn counted_decode_attributes_every_outcome() {
        let reg = Registry::new();
        let m = CodecMetrics::register(&reg);
        let good = encode_snapshot(&snapshot(5, 4, true));
        assert!(m.decode(&good).is_ok());
        assert!(m.decode(&good[..good.len() - 3]).is_err());
        let mut bad_magic = good.to_vec();
        bad_magic[0] ^= 0xFF;
        assert!(m.decode(&bad_magic).is_err());
        let mut bad_version = good.to_vec();
        bad_version[4] = 99;
        assert!(m.decode(&bad_version).is_err());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rups_v2v_codec_decode_ok"), Some(1));
        assert_eq!(snap.counter("rups_v2v_codec_rejected_truncated"), Some(1));
        assert_eq!(snap.counter("rups_v2v_codec_rejected_bad_magic"), Some(1));
        assert_eq!(snap.counter("rups_v2v_codec_rejected_bad_version"), Some(1));
        assert_eq!(snap.counter("rups_v2v_codec_rejected_corrupt"), Some(0));
    }

    #[test]
    fn decoded_snapshot_still_matches_for_rups() {
        // End-to-end: a context that goes through the codec must still
        // produce a correct distance fix.
        use rups_core::config::RupsConfig;
        use rups_core::pipeline::RupsNode;
        let cfg = RupsConfig {
            n_channels: 32,
            window_channels: 24,
            ..RupsConfig::default()
        };
        let field = |s: f64, ch: usize| rups_core::testfield::rssi(3, s, ch);
        let mk = |start: usize| {
            let mut node = RupsNode::new(cfg.clone());
            for i in 0..300 {
                let s = (start + i) as f64;
                node.append_metre(
                    GeoSample {
                        heading_rad: 0.0,
                        timestamp_s: s,
                    },
                    &PowerVector::from_fn(32, |ch| Some(field(s, ch))),
                )
                .unwrap();
            }
            node
        };
        let a = mk(0);
        let b = mk(55);
        let wire = encode_snapshot(&b.snapshot(None));
        let decoded = decode_snapshot(&wire).unwrap();
        let fix = a.fix_distance(&decoded).unwrap();
        assert!(
            (fix.distance_m - 55.0).abs() < 1.5,
            "distance {}",
            fix.distance_m
        );
    }
}
