type env = { chars : int; scale : int; jobs : int }

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v when v > 0 -> v | _ -> default)
  | None -> default

let default_env () =
  {
    chars = getenv_int "RAP_EVAL_CHARS" 10_000;
    scale = getenv_int "RAP_EVAL_SCALE" 1;
    jobs = getenv_int "RAP_EVAL_JOBS" 1;
  }

let base_params = Program.default_params

let suites_cache : (int, Benchmarks.t list) Hashtbl.t = Hashtbl.create 4

let suites env =
  match Hashtbl.find_opt suites_cache env.scale with
  | Some s -> s
  | None ->
      let s = Benchmarks.all ~scale:env.scale () in
      Hashtbl.replace suites_cache env.scale s;
      s

let input_for (s : Benchmarks.t) env = s.Benchmarks.make_input ~chars:env.chars

let subset mode ~params (s : Benchmarks.t) =
  List.filter (fun (_, ast) -> Mode_select.decide ~params ast = mode) s.Benchmarks.regexes

let compile_forced mode ~params regexes =
  List.filter_map
    (fun (src, ast) ->
      match Mode_select.compile_as mode ~params ~source:src ast with
      | c -> c
      | exception Invalid_argument _ -> None)
    regexes

let run_units ?jobs arch ~params units ~input =
  let placement = Runner.place arch ~params units in
  Runner.run ?jobs arch ~params placement ~input

(* ------------------------------------------------------------------ *)
(* Fig 1 *)

type fig1_row = { suite : string; pct_nfa : float; pct_nbva : float; pct_lnfa : float }

let fig1 env =
  List.map
    (fun (s : Benchmarks.t) ->
      let n = float_of_int (List.length s.Benchmarks.regexes) in
      let count mode = float_of_int (List.length (subset mode ~params:base_params s)) in
      {
        suite = s.Benchmarks.name;
        pct_nfa = 100. *. count Mode_select.Nfa_mode /. n;
        pct_nbva = 100. *. count Mode_select.Nbva_mode /. n;
        pct_lnfa = 100. *. count Mode_select.Lnfa_mode /. n;
      })
    (suites env)

let print_fig1 rows =
  print_endline "== Fig 1: regex model mixture per benchmark (percent) ==";
  let t = Texttable.create ~header:[ "Benchmark"; "NFA %"; "NBVA %"; "LNFA %" ] in
  List.iter
    (fun r ->
      Texttable.add_row t
        [ r.suite; Texttable.cell_f r.pct_nfa; Texttable.cell_f r.pct_nbva;
          Texttable.cell_f r.pct_lnfa ])
    rows;
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* Fig 10: DSE *)

type dse_point = { value : int; energy_uj : float; area_mm2 : float; throughput : float }

type dse_result = {
  dse_suite : string;
  depth_sweep : dse_point list;
  bin_sweep : dse_point list;
  chosen_depth : int;
  chosen_bin : int;
}

let depths = [ 4; 8; 16; 32 ]
let bin_sizes = [ 1; 2; 4; 8; 16; 32 ]

let point_of_report value (r : Runner.report) =
  {
    value;
    energy_uj = Energy.total_uj r.Runner.energy;
    area_mm2 = r.Runner.area_mm2;
    throughput = r.Runner.throughput_gchs;
  }

(* Fig 10a choice: improve energy and area while keeping acceptable
   throughput — take the point minimising energy*area among those whose
   throughput is at least 60% of the best sweep throughput. *)
let choose_depth points =
  match points with
  | [] -> base_params.Program.bv_depth
  | _ ->
      let best_tp = List.fold_left (fun acc p -> Float.max acc p.throughput) 0. points in
      let ok = List.filter (fun p -> p.throughput >= 0.6 *. best_tp) points in
      let candidates = if ok = [] then points else ok in
      let best =
        List.fold_left
          (fun acc p ->
            match acc with
            | None -> Some p
            | Some b ->
                if p.energy_uj *. p.area_mm2 < b.energy_uj *. b.area_mm2 then Some p else acc)
          None candidates
      in
      (match best with Some p -> p.value | None -> base_params.Program.bv_depth)

(* Fig 10b choice: lowest energy without a significant area increment
   (half again over the sweep minimum). *)
let choose_bin points =
  match points with
  | [] -> base_params.Program.bin_size
  | _ ->
      let min_area = List.fold_left (fun acc p -> Float.min acc p.area_mm2) infinity points in
      let ok = List.filter (fun p -> p.area_mm2 <= 1.5 *. min_area) points in
      let candidates = if ok = [] then points else ok in
      let best =
        List.fold_left
          (fun acc p ->
            match acc with
            | None -> Some p
            | Some b -> if p.energy_uj < b.energy_uj then Some p else acc)
          None candidates
      in
      (match best with Some p -> p.value | None -> base_params.Program.bin_size)

let dse env =
  List.map
    (fun (s : Benchmarks.t) ->
      let input = input_for s env in
      let nbva_regexes = subset Mode_select.Nbva_mode ~params:base_params s in
      let lnfa_regexes = subset Mode_select.Lnfa_mode ~params:base_params s in
      let depth_sweep =
        if nbva_regexes = [] then []
        else
          List.map
            (fun depth ->
              let params = { base_params with Program.bv_depth = depth } in
              let units = compile_forced Mode_select.Nbva_mode ~params nbva_regexes in
              point_of_report depth (run_units ~jobs:env.jobs (Arch.rap ~bv_depth:depth) ~params units ~input))
            depths
      in
      let bin_sweep =
        if lnfa_regexes = [] then []
        else
          List.map
            (fun bin ->
              let params = { base_params with Program.bin_size = bin } in
              let units = compile_forced Mode_select.Lnfa_mode ~params lnfa_regexes in
              point_of_report bin
                (run_units ~jobs:env.jobs (Arch.rap ~bv_depth:params.Program.bv_depth) ~params units ~input))
            bin_sizes
      in
      {
        dse_suite = s.Benchmarks.name;
        depth_sweep;
        bin_sweep;
        chosen_depth = choose_depth depth_sweep;
        chosen_bin = choose_bin bin_sweep;
      })
    (suites env)

let print_dse results =
  print_endline "== Fig 10(a): NBVA depth sweep (normalised to depth=4) ==";
  let t =
    Texttable.create
      ~header:[ "Benchmark"; "Depth"; "Energy"; "Area"; "Throughput"; "Chosen" ]
  in
  List.iter
    (fun r ->
      match r.depth_sweep with
      | [] -> ()
      | base :: _ ->
          List.iter
            (fun p ->
              Texttable.add_row t
                [
                  r.dse_suite;
                  string_of_int p.value;
                  Texttable.cell_ratio (p.energy_uj /. base.energy_uj);
                  Texttable.cell_ratio (p.area_mm2 /. base.area_mm2);
                  Texttable.cell_ratio (p.throughput /. base.throughput);
                  (if p.value = r.chosen_depth then "<==" else "");
                ])
            r.depth_sweep;
          Texttable.add_rule t)
    results;
  Texttable.print t;
  print_endline "== Fig 10(b): LNFA bin-size sweep (normalised to bin=1) ==";
  let t =
    Texttable.create ~header:[ "Benchmark"; "Bin"; "Energy"; "Area"; "Chosen" ]
  in
  List.iter
    (fun r ->
      match r.bin_sweep with
      | [] -> ()
      | base :: _ ->
          List.iter
            (fun p ->
              Texttable.add_row t
                [
                  r.dse_suite;
                  string_of_int p.value;
                  Texttable.cell_ratio (p.energy_uj /. base.energy_uj);
                  Texttable.cell_ratio (p.area_mm2 /. base.area_mm2);
                  (if p.value = r.chosen_bin then "<==" else "");
                ])
            r.bin_sweep;
          Texttable.add_rule t)
    results;
  Texttable.print t

(* Per-suite parameters with the DSE-chosen depth and bin size (defaults
   when the suite is absent). *)
let params_for results suite =
  match List.find_opt (fun r -> r.dse_suite = suite) results with
  | Some r -> { base_params with Program.bv_depth = r.chosen_depth; bin_size = r.chosen_bin }
  | None -> base_params

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3 *)

type arch_cells = { energy_uj : float; area_mm2 : float; throughput_gchs : float }

type versus_row = {
  v_suite : string;
  baseline : arch_cells;
  rap_nfa : arch_cells;
  cama : arch_cells;
  bvap : arch_cells;
  ca : arch_cells;
}

let cells_of (r : Runner.report) =
  {
    energy_uj = Energy.total_uj r.Runner.energy;
    area_mm2 = r.Runner.area_mm2;
    throughput_gchs = r.Runner.throughput_gchs;
  }

let versus mode env results =
  List.filter_map
    (fun (s : Benchmarks.t) ->
      let params = params_for results s.Benchmarks.name in
      let regexes = subset mode ~params:base_params s in
      if regexes = [] then None
      else
        let input = input_for s env in
        let rap_arch = Arch.rap ~bv_depth:params.Program.bv_depth in
        let native = compile_forced mode ~params regexes in
        let as_nfa = compile_forced Mode_select.Nfa_mode ~params regexes in
        let baseline = cells_of (run_units ~jobs:env.jobs rap_arch ~params native ~input) in
        let rap_nfa = cells_of (run_units ~jobs:env.jobs rap_arch ~params as_nfa ~input) in
        let other arch =
          let units, _ = Runner.compile_for arch ~params regexes in
          cells_of (run_units ~jobs:env.jobs arch ~params units ~input)
        in
        Some
          {
            v_suite = s.Benchmarks.name;
            baseline;
            rap_nfa;
            cama = other Arch.cama;
            bvap = other Arch.bvap;
            ca = other Arch.ca;
          })
    (suites env)

let table2 env results = versus Mode_select.Nbva_mode env results
let table3 env results = versus Mode_select.Lnfa_mode env results

let geomean xs =
  match xs with
  | [] -> 0.
  | _ ->
      exp (List.fold_left (fun acc x -> acc +. log (Float.max 1e-12 x)) 0. xs
           /. float_of_int (List.length xs))

let print_versus ~title ~baseline_name rows =
  print_endline title;
  let t =
    Texttable.create
      ~header:
        [
          "Dataset"; "Metric"; baseline_name; "RAP-NFA"; "CAMA"; "BVAP"; "CA";
        ]
  in
  List.iter
    (fun r ->
      Texttable.add_row t
        [
          r.v_suite; "Energy (uJ)";
          Texttable.cell_f r.baseline.energy_uj;
          Texttable.cell_f r.rap_nfa.energy_uj;
          Texttable.cell_f r.cama.energy_uj;
          Texttable.cell_f r.bvap.energy_uj;
          Texttable.cell_f r.ca.energy_uj;
        ];
      Texttable.add_row t
        [
          ""; "Area (mm^2)";
          Texttable.cell_f r.baseline.area_mm2;
          Texttable.cell_f r.rap_nfa.area_mm2;
          Texttable.cell_f r.cama.area_mm2;
          Texttable.cell_f r.bvap.area_mm2;
          Texttable.cell_f r.ca.area_mm2;
        ];
      Texttable.add_row t
        [
          ""; "Throughput (Gch/s)";
          Texttable.cell_f r.baseline.throughput_gchs;
          Texttable.cell_f r.rap_nfa.throughput_gchs;
          Texttable.cell_f r.cama.throughput_gchs;
          Texttable.cell_f r.bvap.throughput_gchs;
          Texttable.cell_f r.ca.throughput_gchs;
        ];
      Texttable.add_rule t)
    rows;
  (* normalised averages, as in the papers' last row *)
  let avg f =
    [
      geomean (List.map (fun r -> f r.rap_nfa /. f r.baseline) rows);
      geomean (List.map (fun r -> f r.cama /. f r.baseline) rows);
      geomean (List.map (fun r -> f r.bvap /. f r.baseline) rows);
      geomean (List.map (fun r -> f r.ca /. f r.baseline) rows);
    ]
  in
  let add_avg label f =
    match avg f with
    | [ a; b; c; d ] ->
        Texttable.add_row t
          [
            "Average"; label; "1.00x"; Texttable.cell_ratio a; Texttable.cell_ratio b;
            Texttable.cell_ratio c; Texttable.cell_ratio d;
          ]
    | _ -> ()
  in
  add_avg "Energy (norm)" (fun c -> c.energy_uj);
  add_avg "Area (norm)" (fun c -> c.area_mm2);
  add_avg "Throughput (norm)" (fun c -> c.throughput_gchs);
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* Fig 11 *)

type breakdown_row = {
  b_suite : string;
  states : int * int * int;
  energy_pj : float * float * float;
  area_um2 : float * float * float;
}

let fig11 env results =
  List.map
    (fun (s : Benchmarks.t) ->
      let params = params_for results s.Benchmarks.name in
      let input = input_for s env in
      let arch = Arch.rap ~bv_depth:params.Program.bv_depth in
      let units, _ = Runner.compile_for arch ~params s.Benchmarks.regexes in
      let r = run_units ~jobs:env.jobs arch ~params units ~input in
      let get l m = List.assoc m l in
      {
        b_suite = s.Benchmarks.name;
        states =
          ( get r.Runner.mode_states Engine.M_nfa,
            get r.Runner.mode_states Engine.M_nbva,
            get r.Runner.mode_states Engine.M_lnfa );
        energy_pj =
          ( get r.Runner.mode_energy_pj Engine.M_nfa,
            get r.Runner.mode_energy_pj Engine.M_nbva,
            get r.Runner.mode_energy_pj Engine.M_lnfa );
        area_um2 =
          ( get r.Runner.mode_area_um2 Engine.M_nfa,
            get r.Runner.mode_area_um2 Engine.M_nbva,
            get r.Runner.mode_area_um2 Engine.M_lnfa );
      })
    (suites env)

let print_fig11 rows =
  print_endline "== Fig 11: share of STEs / energy / area per mode (percent, RAP) ==";
  let t =
    Texttable.create
      ~header:
        [
          "Benchmark"; "STE NFA"; "STE NBVA"; "STE LNFA"; "E NFA"; "E NBVA"; "E LNFA";
          "A NFA"; "A NBVA"; "A LNFA"; "Total E(uJ)"; "Total A(mm2)";
        ]
  in
  let pct (a, b, c) =
    let s = a +. b +. c in
    if s <= 0. then (0., 0., 0.) else (100. *. a /. s, 100. *. b /. s, 100. *. c /. s)
  in
  List.iter
    (fun r ->
      let s1, s2, s3 =
        let a, b, c = r.states in
        pct (float_of_int a, float_of_int b, float_of_int c)
      in
      let e1, e2, e3 = pct r.energy_pj in
      let a1, a2, a3 = pct r.area_um2 in
      let te = let a, b, c = r.energy_pj in (a +. b +. c) /. 1e6 in
      let ta = let a, b, c = r.area_um2 in (a +. b +. c) /. 1e6 in
      Texttable.add_row t
        [
          r.b_suite;
          Texttable.cell_f s1; Texttable.cell_f s2; Texttable.cell_f s3;
          Texttable.cell_f e1; Texttable.cell_f e2; Texttable.cell_f e3;
          Texttable.cell_f a1; Texttable.cell_f a2; Texttable.cell_f a3;
          Texttable.cell_f te; Texttable.cell_f ta;
        ])
    rows;
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* Fig 12 *)

type overall_row = {
  o_suite : string;
  o_arch : string;
  o_area_mm2 : float;
  o_throughput : float;
  o_energy_eff : float;
  o_density : float;
  o_power_w : float;
}

(* Resource re-allocation (§5.5): every NBVA array below 2 Gch/s gets
   replicas sharing its input stream; throughput rises accordingly at a
   small area cost. *)
let boost_nbva (r : Runner.report) =
  let clock = Circuit.rap_clock_ghz in
  let chars = float_of_int r.Runner.chars in
  let tile_area = Circuit.rap_tile_area_um2 in
  let extra_area = ref 0. in
  let min_tp = ref infinity in
  Array.iter
    (fun (d : Runner.array_detail) ->
      let tp = chars *. clock /. float_of_int d.Runner.a_cycles in
      let tp =
        if d.Runner.a_has_nbva && tp < 2.0 then begin
          let k = int_of_float (ceil (2.0 /. tp)) in
          extra_area :=
            !extra_area
            +. (float_of_int (k - 1)
               *. ((float_of_int d.Runner.a_tiles *. tile_area) +. Circuit.array_overhead_um2));
          tp *. float_of_int k
        end
        else tp
      in
      if tp < !min_tp then min_tp := tp)
    r.Runner.arrays_detail;
  let throughput = if !min_tp = infinity then r.Runner.throughput_gchs else Float.min !min_tp clock in
  (throughput, r.Runner.area_mm2 +. (!extra_area /. 1e6))

let overall_of_report ~suite ~arch_name ?(boosted = false) (r : Runner.report) =
  let throughput, area =
    if boosted then boost_nbva r else (r.Runner.throughput_gchs, r.Runner.area_mm2)
  in
  {
    o_suite = suite;
    o_arch = arch_name;
    o_area_mm2 = area;
    o_throughput = throughput;
    o_energy_eff = (if r.Runner.power_w > 0. then throughput /. r.Runner.power_w else 0.);
    o_density = (if area > 0. then throughput /. area else 0.);
    o_power_w = r.Runner.power_w;
  }

let fig12 env results =
  List.concat_map
    (fun (s : Benchmarks.t) ->
      let params = params_for results s.Benchmarks.name in
      let input = input_for s env in
      let one arch boosted =
        let units, _ = Runner.compile_for arch ~params s.Benchmarks.regexes in
        let r = run_units ~jobs:env.jobs arch ~params units ~input in
        overall_of_report ~suite:s.Benchmarks.name ~arch_name:(Arch.kind_name arch.Arch.kind)
          ~boosted r
      in
      [
        one (Arch.rap ~bv_depth:params.Program.bv_depth) true;
        one Arch.bvap false;
        one Arch.cama false;
        one Arch.ca false;
      ])
    (suites env)

let print_overall title rows =
  print_endline title;
  let t =
    Texttable.create
      ~header:
        [
          "Benchmark"; "Arch"; "Area (mm^2)"; "Thpt (Gch/s)"; "E-eff (Gch/s/W)";
          "Density (Gch/s/mm^2)"; "Power (W)";
        ]
  in
  let last = ref "" in
  List.iter
    (fun r ->
      if !last <> "" && !last <> r.o_suite then Texttable.add_rule t;
      last := r.o_suite;
      Texttable.add_row t
        [
          r.o_suite; r.o_arch;
          Texttable.cell_f r.o_area_mm2;
          Texttable.cell_f r.o_throughput;
          Texttable.cell_f r.o_energy_eff;
          Texttable.cell_f r.o_density;
          Texttable.cell_f r.o_power_w;
        ])
    rows;
  Texttable.print t

let print_fig12 rows =
  print_overall "== Fig 12: RAP vs BVAP / CAMA / CA (per benchmark) ==" rows;
  (* normalised geomean summary vs RAP *)
  let archs = [ "BVAP"; "CAMA"; "CA" ] in
  let raps = List.filter (fun r -> r.o_arch = "RAP") rows in
  let t = Texttable.create ~header:[ "Arch"; "E-eff vs RAP"; "Density vs RAP"; "Power vs RAP" ] in
  List.iter
    (fun a ->
      let ratio f =
        geomean
          (List.filter_map
             (fun rap ->
               List.find_opt (fun r -> r.o_arch = a && r.o_suite = rap.o_suite) rows
               |> Option.map (fun r -> f rap /. Float.max 1e-9 (f r)))
             raps)
      in
      Texttable.add_row t
        [
          a;
          Texttable.cell_ratio (ratio (fun r -> r.o_energy_eff));
          Texttable.cell_ratio (ratio (fun r -> r.o_density));
          Texttable.cell_ratio (1. /. Float.max 1e-9 (ratio (fun r -> r.o_power_w)));
        ])
    archs;
  print_endline "-- RAP advantage (geomean across benchmarks) --";
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* Fig 13 *)

let fig13 env results =
  List.concat_map
    (fun (s : Benchmarks.t) ->
      let params = params_for results s.Benchmarks.name in
      let input = input_for s env in
      let arch = Arch.rap ~bv_depth:params.Program.bv_depth in
      let units, _ = Runner.compile_for arch ~params s.Benchmarks.regexes in
      let r = run_units ~jobs:env.jobs arch ~params units ~input in
      let rap = overall_of_report ~suite:s.Benchmarks.name ~arch_name:"RAP" ~boosted:true r in
      let of_point (p : Platforms.point) =
        {
          o_suite = s.Benchmarks.name;
          o_arch = p.Platforms.name;
          o_area_mm2 = 0.;
          o_throughput = p.Platforms.throughput_gchs;
          o_energy_eff = Platforms.energy_efficiency p;
          o_density = 0.;
          o_power_w = p.Platforms.power_w;
        }
      in
      [
        rap;
        of_point
          (Platforms.gpu_hybridsa ~rap_power_w:rap.o_power_w ~rap_throughput:rap.o_throughput
             ~suite:s.Benchmarks.name);
        of_point
          (Platforms.cpu_hyperscan ~rap_power_w:rap.o_power_w ~rap_throughput:rap.o_throughput
             ~suite:s.Benchmarks.name);
      ])
    (suites env)

let print_fig13 rows =
  print_overall "== Fig 13: RAP vs GPU (HybridSA) and CPU (Hyperscan) ==" rows

(* ------------------------------------------------------------------ *)
(* Table 4 *)

let table4 env =
  let params = base_params in
  List.concat_map
    (fun (s : Benchmarks.t) ->
      let input = input_for s env in
      let arch = Arch.rap ~bv_depth:params.Program.bv_depth in
      let units, _ = Runner.compile_for arch ~params s.Benchmarks.regexes in
      let r = run_units ~jobs:env.jobs arch ~params units ~input in
      let rap = overall_of_report ~suite:s.Benchmarks.name ~arch_name:"RAP" ~boosted:true r in
      match Platforms.hap_fpga ~suite:s.Benchmarks.name with
      | Some p ->
          [
            rap;
            {
              o_suite = s.Benchmarks.name;
              o_arch = "hAP (FPGA)";
              o_area_mm2 = 0.;
              o_throughput = p.Platforms.throughput_gchs;
              o_energy_eff = Platforms.energy_efficiency p;
              o_density = 0.;
              o_power_w = p.Platforms.power_w;
            };
          ]
      | None -> [ rap ])
    (Benchmarks.anmlzoo ~scale:env.scale ())

let print_table4 rows =
  print_overall "== Table 4: RAP vs hAP (FPGA) on ANMLZoo ==" rows

(* ------------------------------------------------------------------ *)

let run_all env =
  let f1 = fig1 env in
  print_fig1 f1;
  print_newline ();
  let d = dse env in
  print_dse d;
  print_newline ();
  print_versus ~title:"== Table 2: NBVA mode of RAP vs NFA mode and ASICs =="
    ~baseline_name:"RAP-NBVA" (table2 env d);
  print_newline ();
  print_versus ~title:"== Table 3: LNFA mode of RAP vs NFA mode and ASICs =="
    ~baseline_name:"RAP-LNFA" (table3 env d);
  print_newline ();
  print_fig11 (fig11 env d);
  print_newline ();
  print_fig12 (fig12 env d);
  print_newline ();
  print_fig13 (fig13 env d);
  print_newline ();
  print_table4 (table4 env)
