(* The named workloads, their default seeds, and how one runs. *)

type workload = { name : string; default_seed : int; run : Harness.ctx -> unit }

let all =
  [
    { name = "fig5-super-500k"; default_seed = 42; run = Wl_fig5.run ~supercharged:true };
    { name = "fig5-plain-500k"; default_seed = 42; run = Wl_fig5.run ~supercharged:false };
    { name = "ctrl-churn-250k"; default_seed = 42; run = Wl_churn.run };
    { name = "dataplane"; default_seed = 11; run = Wl_dataplane.run };
    { name = "check-chaos"; default_seed = 1; run = Wl_chaos.run };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Runs one workload in this process and returns its report and spans. *)
let run w ~seed ~seconds ~scale ~traced =
  let tr = if traced then Trace.create () else Trace.off () in
  let r = Report.create ~workload:w.name ~seed ~traced in
  w.run { Harness.workload = w.name; seed; seconds; scale; tr; r; generate_s = 0.0 };
  (r, tr)
