use super::*;

// Point lookups into the sweep, which only the tests make (the report
// renders and serialises every cell).
impl ObservatoryReport {
    /// The accuracy of one named cell.
    fn cell_accuracy(&self, name: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.accuracy)
    }

    /// The overhead of one named cell.
    fn cell_overhead(&self, name: &str) -> Option<u64> {
        self.cells
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.overhead_bytes)
    }
}

/// Bytes of one unpadded frame carrying `events` events of `payload`
/// bytes in all.
fn frame(events: usize, payload: usize) -> u64 {
    PaddingPolicy::None.frame_wire_size(events, payload) as u64
}

fn did(seed: &[u8]) -> Did {
    Did::plc_from_seed(seed)
}

#[test]
fn classes_partition_the_weight_axis() {
    assert_eq!(ActivityClass::of_weight(1.0), ActivityClass::PostingHeavy);
    assert_eq!(ActivityClass::of_weight(0.6), ActivityClass::PostingHeavy);
    assert_eq!(ActivityClass::of_weight(0.3), ActivityClass::FeedFetching);
    assert_eq!(ActivityClass::of_weight(0.1), ActivityClass::Lurking);
}

#[test]
fn cell_trace_unbatched_counts_each_event() {
    let frames = [(100i64, 200u64), (160, 300), (220, 100)];
    let cell = cell_trace(&frames, PaddingPolicy::None, 0);
    assert_eq!(cell.frames, 3);
    assert_eq!(
        cell.wire_bytes,
        frame(1, 200) + frame(1, 300) + frame(1, 100)
    );
    assert_eq!((cell.first, cell.last), (100, 220));
}

#[test]
fn cell_trace_batching_coalesces_windows() {
    let frames = [(100i64, 200u64), (110, 300), (220, 100)];
    // 60 s windows: events at 100 and 110 share window 1 (flush 120);
    // the event at 220 is alone in window 3 (flush 240).
    let cell = cell_trace(&frames, PaddingPolicy::None, 60);
    assert_eq!(cell.frames, 2);
    assert_eq!((cell.first, cell.last), (120, 240));
    assert_eq!(cell.wire_bytes, frame(2, 500) + frame(1, 100));
    // Batching strictly saves header bytes relative to per-event frames.
    let unbatched = cell_trace(&frames, PaddingPolicy::None, 0);
    assert!(cell.wire_bytes < unbatched.wire_bytes);
}

#[test]
fn cell_trace_is_chunking_independent() {
    // Splitting a day's frames anywhere and absorbing the two halves
    // must equal evaluating the whole day — with batching, only when
    // the split respects window boundaries, which the producer's
    // day-end flush guarantees; without batching, for any split.
    let frames: Vec<(i64, u64)> = (0..40).map(|i| (i * 7, 100 + i as u64)).collect();
    for split in [1usize, 10, 25, 39] {
        let whole = cell_trace(&frames, PaddingPolicy::Buckets, 0);
        let mut left = cell_trace(&frames[..split], PaddingPolicy::Buckets, 0);
        let right = cell_trace(&frames[split..], PaddingPolicy::Buckets, 0);
        left.absorb(&right);
        assert_eq!(left, whole, "split {split}");
    }
}

#[test]
fn padding_never_shrinks_a_wire() {
    let frames = [(0i64, 150u64), (30, 700), (3700, 90)];
    let none = cell_trace(&frames, PaddingPolicy::None, 0);
    let buckets = cell_trace(&frames, PaddingPolicy::Buckets, 0);
    let constant = cell_trace(&frames, PaddingPolicy::Constant, 0);
    assert!(buckets.wire_bytes >= none.wire_bytes);
    assert!(constant.wire_bytes >= buckets.wire_bytes);
}

#[test]
fn merge_equals_single_fold_over_any_record_split() {
    let records: Vec<WireTraceDay> = (0..30)
        .map(|i| {
            let frames: Vec<(i64, u64)> = (0..(1 + i % 5))
                .map(|j| ((i * 86_400 + j * 100) as i64, 200 + (i * j) as u64))
                .collect();
            WireTraceDay::from_frames(
                if i % 7 == 0 {
                    TraceKind::Dns
                } else {
                    TraceKind::Repo
                },
                did(&[i as u8]),
                i as i64,
                ActivityClass::of_weight(1.0 / (1.0 + i as f64)),
                &frames,
                0,
            )
        })
        .collect();
    let mut whole = ObservatoryAnalyzer::default();
    for record in &records {
        whole.observe(&Observation::WireTrace(record));
    }
    for split in [0usize, 7, 15, 30] {
        let mut a = ObservatoryAnalyzer::default();
        let mut b = ObservatoryAnalyzer::default();
        for (i, record) in records.iter().enumerate() {
            let target = if i < split { &mut a } else { &mut b };
            target.observe(&Observation::WireTrace(record));
        }
        a.merge(b);
        assert_eq!(a.records, whole.records, "split {split}");
    }
    let report = whole.finish();
    assert_eq!(report.cells.len(), CELL_COUNT);
    assert!(report.traced_days > 0);
    assert!(report.dns_lookups > 0);
}

#[test]
fn classifier_separates_separable_classes() {
    // Synthetic but separable: posting-heavy days carry an order of
    // magnitude more payload than lurking days. The unmitigated cell
    // must classify well above chance; the constant-pad + 1 h batch
    // cell collapses every day to one 4096-byte frame and must fall to
    // the chance baseline.
    let mut analyzer = ObservatoryAnalyzer::default();
    let mut fold = |record: WireTraceDay| {
        analyzer.observe(&Observation::WireTrace(&record));
    };
    for user in 0..30u8 {
        let (class, size) = match user % 3 {
            0 => (ActivityClass::PostingHeavy, 2_000u64),
            1 => (ActivityClass::FeedFetching, 700),
            _ => (ActivityClass::Lurking, 250),
        };
        for day in 0..10i64 {
            let base = day * 86_400 + 40_000 + user as i64;
            fold(WireTraceDay::from_frames(
                TraceKind::Repo,
                did(&[user, day as u8]),
                day,
                class,
                &[(base, size), (base + 60, size / 2)],
                0,
            ));
        }
    }
    let report = analyzer.finish();
    let none = report.cell_accuracy("none").unwrap();
    let collapsed = report.cell_accuracy("const4096+batch1h").unwrap();
    assert!(
        none > report.chance_accuracy + 0.2,
        "none cell {none} vs chance {}",
        report.chance_accuracy
    );
    assert!(
        collapsed <= report.chance_accuracy + 1e-9,
        "collapsed cell {collapsed} vs chance {}",
        report.chance_accuracy
    );
    // Overheads are monotone along the sweep's padding axis.
    assert!(report.cell_overhead("pad128").unwrap() > report.cell_overhead("none").unwrap());
    assert!(
        report.cell_overhead("const4096+batch1h").unwrap()
            > report.cell_overhead("pad128+batch1h").unwrap()
    );
    let rendered = report.render();
    assert!(rendered.contains("§10"));
    assert!(rendered.contains("| none |"));
    let json = report.to_json().to_string_pretty();
    assert!(json.contains("chance_accuracy"));
}

#[test]
fn stride_sampling_is_deterministic_and_counted() {
    let indices: Vec<usize> = (0..100).collect();
    let sampled = stride_sample(&indices, 10);
    assert_eq!(sampled.len(), 10);
    assert_eq!(sampled, vec![0, 10, 20, 30, 40, 50, 60, 70, 80, 90]);
    assert_eq!(stride_sample(&indices, 200), indices);
}
