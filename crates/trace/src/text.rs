//! Human-readable, tcpdump-style rendering of trace records — the format
//! an operator eyeballs when a diagnosis looks surprising.

use std::fmt::Write as _;

use crate::record::{Direction, TraceRecord};

/// Render one record on one line, tcpdump-flavoured:
///
/// ```text
/// 0.150044  <  seq 0:1448(1448) ack 300 win 1048576
/// 0.210382  >  . ack 1448 win 1877708 sack {2896:4344}
/// ```
///
/// `<` is server→client (outbound), `>` client→server.
pub fn render_record(rec: &TraceRecord) -> String {
    let mut s = String::with_capacity(96);
    let dir = match rec.dir {
        Direction::Out => '<',
        Direction::In => '>',
    };
    let _ = write!(s, "{:>11.6}  {dir}  ", rec.t.as_secs_f64());
    let mut flags = String::new();
    if rec.flags.syn {
        flags.push('S');
    }
    if rec.flags.fin {
        flags.push('F');
    }
    if rec.flags.rst {
        flags.push('R');
    }
    if flags.is_empty() {
        flags.push('.');
    }
    let _ = write!(s, "{flags} ");
    if rec.has_data() {
        let _ = write!(s, "seq {}:{}({}) ", rec.seq, rec.seq_end(), rec.len);
    }
    if rec.flags.ack {
        let _ = write!(s, "ack {} ", rec.ack);
    }
    let _ = write!(s, "win {}", rec.rwnd);
    if !rec.sack.is_empty() {
        let _ = write!(s, " sack");
        if rec.dsack {
            let _ = write!(s, "(D)");
        }
        let _ = write!(s, " {{");
        for (i, b) in rec.sack.iter().enumerate() {
            if i > 0 {
                let _ = write!(s, " ");
            }
            let _ = write!(s, "{}:{}", b.start, b.end);
        }
        let _ = write!(s, "}}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{SackBlock, SegFlags};
    use simnet::time::SimTime;

    #[test]
    fn renders_data_and_ack_fields() {
        let rec = TraceRecord::data(
            SimTime::from_micros(150_044),
            Direction::Out,
            0,
            1448,
            300,
            1_048_576,
        );
        let line = render_record(&rec);
        assert!(line.contains("seq 0:1448(1448)"));
        assert!(line.contains("ack 300"));
        assert!(line.contains("win 1048576"));
        assert!(line.contains('<'));
    }

    #[test]
    fn renders_sack_and_dsack_markers() {
        let mut rec = TraceRecord::pure_ack(SimTime::ZERO, Direction::In, 1448, 65535);
        rec.sack = [SackBlock::new(2896, 4344), SackBlock::new(5792, 7240)].into();
        let line = render_record(&rec);
        assert!(line.contains("sack {2896:4344 5792:7240}"), "{line}");
        rec.dsack = true;
        assert!(render_record(&rec).contains("sack(D)"));
    }

    #[test]
    fn renders_syn_flag() {
        let mut rec = TraceRecord::pure_ack(SimTime::ZERO, Direction::In, 0, 8192);
        rec.flags = SegFlags::SYN;
        let line = render_record(&rec);
        assert!(line.contains("S "), "{line}");
        assert!(
            !line.contains("ack 0 "),
            "bare SYN has no ack field: {line}"
        );
    }
}
