package repro.core.maintenance

import scala.collection.mutable
import repro.truss.TrussInsert

/** Dynamic index maintenance (§VI): on inserting a temporal edge
  * `(u, v, t)`, find the (small) set of `(edge, k)` entries whose k-span
  * changes and update only those, instead of rebuilding the index.
  *
  * Pipeline per Algorithm 2:
  *
  *  1. **Filter of k** (Theorem 5): only `3 ≤ k ≤ trn(e0, G+)` can change.
  *     For a brand-new static edge, static trussness is first maintained
  *     with [[TrussInsert]]; edges whose trussness rises to `k` (the `L_Ek`
  *     sets of Definition 11) get a fresh level-`k` slot initialized to the
  *     upper-bound estimate of Definition 12 / Lemma 7, and their newly
  *     activated triangles are treated as dropping from `mts = ∞` — which
  *     reduces edge insertion to the timestamp-insertion machinery.
  *  2. **Filter of k-span** (Lemmas 5–6): candidate triangles that cannot
  *     lower any k-span are discarded; the survivors yield the affected
  *     interval `[δ−, δ+]` (we merge all per-triangle intervals into one —
  *     a superset of the paper's disjoint-interval union, trading a little
  *     verification work for a simpler invariant).
  *  3. **Filter of edge / GAS** (Algorithm 1): BFS from the affected
  *     triangles through triangles of k-rank ≤ δ+, collecting the region of
  *     edges with current k-span inside the interval plus the local
  *     δ-triangle list.
  *  4. **Verification**: run DBA's `decomph` peeling on the region from δ+
  *     down to δ−. Edges outside the region that appear in local triangles
  *     necessarily have k-span < δ− and act as fixed boundary support.
  *     An edge peeled while invalidating `mts = δ` triangles has new k-span
  *     δ; survivors at the bottom have new k-span δ− (their k-span cannot
  *     drop below δ−, the smallest new mts among affected triangles).
  */
object IndexMaintenance {

  /** What one insertion touched (for tests and the maintenance bench). */
  final case class InsertReport(
      newStaticEdge: Boolean,
      verifiedKs: Int,
      regionEdgesTotal: Int,
      changedSpans: Int,
      /** k levels whose I_k row membership or edge positions changed —
        * exactly the rows an incremental TC-Index refresh must rebuild. */
      changedLevels: Set[Int],
  )

  /** Insert temporal edge `(u, v, t)` and restore the full k-span state.
    * Bad input is rejected before the state changes.
    */
  def insert(st: DynamicState, uRaw: Int, vRaw: Int, t: Int): InsertReport = {
    require(uRaw != vRaw, "self loops are not part of the model")
    require(uRaw >= 0 && vRaw >= 0 && t >= 0,
      s"vertex ids and timestamps must be non-negative, got ($uRaw, $vRaw, $t)")
    val (u, v) = if (uRaw < vRaw) (uRaw, vRaw) else (vRaw, uRaw)
    st.ensureVertex(v)
    val existing = st.edgeId(u, v)
    if (existing >= 0) {
      val changed = st.addTimestamp(existing, t)
      if (changed.isEmpty) return InsertReport(newStaticEdge = false, 0, 0, 0, Set.empty)
      val oldMts = changed.map { case (tid, old, _) => tid -> old }.toMap
      val (ks, region, spans, levels) =
        maintainSpans(st, kHigh = st.trn(existing), candidateTris = oldMts.keySet,
          oldMtsOf = oldMts, entrantsAt = Map.empty, e0 = existing)
      InsertReport(newStaticEdge = false, ks, region, spans, levels)
    } else {
      val (e0, newTris) = st.addEdge(u, v, t)

      // --- static trussness maintenance (filter of k) --------------------
      val upgraded = TrussInsert.maintain(st.tris, st.trn, e0)
      val kHigh = st.trn(e0)

      // entrantsAt(k) = edges whose trussness rose from k−1 to k
      val entrantsAt: Map[Int, Set[Int]] = upgraded.groupBy(e => st.trn(e))
      // Upper-bound k-span estimates for e0 and the L_Ek sets (Def. 12 /
      // Lemma 7). e0 and the level-k entrants are mutually dependent — an
      // entrant may owe its membership to e0 and vice versa — so one joint
      // bound per level is computed over the whole "newish" component: the
      // max of (t1) the mts of every k-world triangle touching it and (t2)
      // the current k-span of every settled companion in those triangles.
      // The fixpoint argument of Lemma 7 applies verbatim to the union.
      st.table.growRow(e0, 0)
      var kEst = 3
      while (kEst <= kHigh) {
        val newish = entrantsAt.getOrElse(kEst, Set.empty) + e0
        val bound = jointUpperBound(st, kEst, newish)
        for (e <- newish if e != e0; if st.trn(e) == kEst) {
          st.table.growRow(e, bound); st.table.setSpan(e, kEst, bound)
        }
        st.table.setSpan(e0, kEst, bound)
        kEst += 1
      }

      // candidate triangles: the new ones through e0 (entering every
      // k-world), plus pre-existing triangles that enter the k-world of an
      // upgraded edge's new level; all treated as mts ∞ → mts
      val cand = mutable.HashSet.empty[Int] ++ newTris
      for ((_, es) <- entrantsAt; e <- es; tid <- st.tris.trianglesOf(e)) cand += tid
      val (ks, region, spans, levels) =
        maintainSpans(st, kHigh = kHigh, candidateTris = cand.toSet,
          oldMtsOf = Map.empty.withDefaultValue(Int.MaxValue),
          entrantsAt = entrantsAt, e0 = e0)
      // a new static edge joins every row k ≤ trn(e0); entrants join theirs
      InsertReport(newStaticEdge = true, ks, region, spans,
        levels ++ (3 to kHigh))
    }
  }

  /** Joint Lemma-7 upper bound for the level-`k` "newish" edges (`e0` plus
    * the entrants whose trussness rose to `k`): every newish edge belongs to
    * `T_{k,δ̄}` for `δ̄ = max(t1, t2)` with `t1` the largest mts of a
    * triangle of the new k-truss touching a newish edge and `t2` the
    * largest current k-span among settled companions in those triangles —
    * at that δ every such triangle is valid and every settled companion is
    * already a member, so the newish edges support each other exactly as in
    * the new k-truss.
    */
  private def jointUpperBound(st: DynamicState, k: Int, newish: Set[Int]): Int = {
    var bound = 0
    var found = false
    for (e <- newish if st.trn(e) >= k; tid <- st.tris.trianglesOf(e)) {
      val (a, b) = st.tris.othersOf(tid, e)
      if (st.trn(a) >= k && st.trn(b) >= k) {
        found = true
        if (st.tris.mts(tid) > bound) bound = st.tris.mts(tid)
        for (f <- Seq(a, b)) {
          if (!newish.contains(f) && st.table.spans(f).length >= k - 2 && st.span(f, k) > bound)
            bound = st.span(f, k)
        }
      }
    }
    assert(found, s"no k-world triangle touches the newish edges at k=$k")
    bound
  }

  /** Steps 2–4 for every affected k. `candidateTris` either changed mts
    * (`oldMtsOf`) or entered the k-world (`oldMts = ∞`). Returns
    * `(verifiedKs, regionEdgesTotal, changedSpans)`.
    */
  private def maintainSpans(
      st: DynamicState,
      kHigh: Int,
      candidateTris: Set[Int],
      oldMtsOf: Map[Int, Int],
      entrantsAt: Map[Int, Set[Int]],
      e0: Int,
  ): (Int, Int, Int, Set[Int]) = {
    var verifiedKs = 0
    var regionTotal = 0
    var changedTotal = 0
    val changedLevels = scala.collection.mutable.HashSet.empty[Int]
    var k = kHigh
    while (k >= 3) {
      val entrants = entrantsAt.getOrElse(k, Set.empty)
      // --- filter of k-span (Lemma 5) ----------------------------------
      var dPlus = -1
      var dMinus = Int.MaxValue
      val kept = mutable.ArrayBuffer.empty[Int]
      for (tid <- candidateTris) {
        val a = st.tris.e1(tid); val b = st.tris.e2(tid); val c = st.tris.e3(tid)
        if (st.trn(a) >= k && st.trn(b) >= k && st.trn(c) >= k) {
          val newEntryTri = // triangle entering this k-world just now
            oldMtsOf(tid) == Int.MaxValue &&
              (a == e0 || b == e0 || c == e0 ||
                entrants.contains(a) || entrants.contains(b) || entrants.contains(c))
          val relevant = newEntryTri || oldMtsOf(tid) != Int.MaxValue
          if (relevant) {
            val dm = math.max(st.span(a, k), math.max(st.span(b, k), st.span(c, k)))
            val mtsNew = st.tris.mts(tid)
            // Lemma 5 skip: an already-valid-below-δm or still-above-δm
            // triangle changes nothing; for triangles with brand-new edges
            // the equality case must be kept (their span entry is only an
            // estimate that still needs verification).
            val skip =
              if (newEntryTri) mtsNew > dm
              else oldMtsOf(tid) < dm || mtsNew >= dm
            if (!skip) {
              kept += tid
              if (dm > dPlus) dPlus = dm
              if (mtsNew < dMinus) dMinus = mtsNew
            }
          }
        }
      }
      if (kept.nonEmpty) {
        verifiedKs += 1
        val (region, changed) = verifyLevel(st, k, kept.toArray, dMinus, dPlus)
        regionTotal += region
        changedTotal += changed
        if (changed > 0) changedLevels += k
      }
      k -= 1
    }
    (verifiedKs, regionTotal, changedTotal, changedLevels.toSet)
  }

  /** GAS (Algorithm 1) + local `decomph` verification for one k level. */
  private def verifyLevel(st: DynamicState, k: Int, seedTris: Array[Int],
                          dMinus: Int, dPlus: Int): (Int, Int) = {
    @inline def inKWorld(e: Int): Boolean = st.trn(e) >= k
    @inline def spanK(e: Int): Int = st.span(e, k)

    // --- region BFS ----------------------------------------------------
    val region = mutable.HashSet.empty[Int]
    val queue = mutable.ArrayDeque.empty[Int]
    val sTris = mutable.LinkedHashSet.empty[Int] // the local δ-triangle list
    for (tid <- seedTris) {
      val a = st.tris.e1(tid); val b = st.tris.e2(tid); val c = st.tris.e3(tid)
      for (e <- Seq(a, b, c))
        if (spanK(e) >= dMinus && spanK(e) <= dPlus && region.add(e)) queue += e
    }
    while (queue.nonEmpty) {
      val e = queue.removeHead()
      for (tid <- st.tris.trianglesOf(e)) {
        val a = st.tris.e1(tid); val b = st.tris.e2(tid); val c = st.tris.e3(tid)
        if (inKWorld(a) && inKWorld(b) && inKWorld(c)) {
          val rank = math.max(st.tris.mts(tid),
            math.max(spanK(a), math.max(spanK(b), spanK(c))))
          if (rank <= dPlus) {
            sTris += tid
            for (f <- Seq(a, b, c))
              if (spanK(f) >= dMinus && spanK(f) <= dPlus && region.add(f)) queue += f
          }
        }
      }
    }
    if (region.isEmpty) return (0, 0)

    // --- local decomph peel from δ+ down to δ− -------------------------
    // `active` holds exactly the local triangles; the others count as inactive
    val active = mutable.HashMap.empty[Int, Boolean]
    val sup = mutable.HashMap.empty[Int, Int].withDefaultValue(0)
    for (tid <- sTris) {
      val isActive = st.tris.mts(tid) <= dPlus
      active(tid) = isActive
      val a = st.tris.e1(tid); val b = st.tris.e2(tid); val c = st.tris.e3(tid)
      for (e <- Seq(a, b, c) if isActive && region.contains(e)) sup(e) += 1
    }
    // the active local triangles invalidated on the way down, by mts descending
    val drops = sTris.toArray
      .filter(tid => active(tid) && st.tris.mts(tid) > dMinus)
      .sortBy(tid => -st.tris.mts(tid))
    // every region edge is a member of the new T_{k,δ+}, so its support
    // there must already meet the threshold — a violation means the filters
    // above lost a supporting triangle.
    for (e <- region)
      assert(sup(e) >= k - 2,
        s"GAS region edge $e undersupported at delta+=$dPlus (k=$k): ${sup(e)}")
    val alive = mutable.HashSet.empty[Int] ++ region
    val newSpan = mutable.HashMap.empty[Int, Int]
    val peelQ = mutable.ArrayDeque.empty[Int]

    def deactivate(tid: Int): Unit = {
      active(tid) = false
      val a = st.tris.e1(tid); val b = st.tris.e2(tid); val c = st.tris.e3(tid)
      for (f <- Seq(a, b, c) if alive.contains(f)) {
        sup(f) -= 1
        if (sup(f) < k - 2) peelQ += f
      }
    }

    var next = 0
    var step = dPlus
    while (step > dMinus) {
      while (next < drops.length && st.tris.mts(drops(next)) == step) {
        if (active(drops(next))) deactivate(drops(next))
        next += 1
      }
      while (peelQ.nonEmpty) {
        val e = peelQ.removeHead()
        if (alive.contains(e) && sup(e) < k - 2) {
          alive -= e
          newSpan(e) = step
          for (tid <- st.tris.trianglesOf(e) if active.getOrElse(tid, false))
            deactivate(tid)
        }
      }
      step -= 1
    }
    for (e <- alive) newSpan(e) = dMinus

    var changed = 0
    for ((e, nu) <- newSpan) {
      val old = spanK(e)
      assert(nu <= old, s"k-span may only shrink on insertion: edge $e k=$k $old -> $nu")
      if (nu != old) { st.table.setSpan(e, k, nu); changed += 1 }
    }
    (region.size, changed)
  }
}
