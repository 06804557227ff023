type totals = {
  committed : int;
  steered_narrow : int;
  copies : int;
  split_uops : int;
  steered_888 : int;
  steered_br : int;
  steered_cr : int;
  steered_ir : int;
  steered_other : int;
  wide_default : int;
  wide_demoted : int;
  wpred_correct : int;
  wpred_fatal : int;
  wpred_nonfatal : int;
  prefetch_copies : int;
  prefetch_useful : int;
  nready_w2n : int;
  nready_n2w : int;
  issued_total : int;
}

let zero_totals =
  {
    committed = 0; steered_narrow = 0; copies = 0; split_uops = 0;
    steered_888 = 0; steered_br = 0; steered_cr = 0; steered_ir = 0;
    steered_other = 0; wide_default = 0; wide_demoted = 0;
    wpred_correct = 0; wpred_fatal = 0; wpred_nonfatal = 0;
    prefetch_copies = 0; prefetch_useful = 0;
    nready_w2n = 0; nready_n2w = 0; issued_total = 0;
  }

(* one binary operation applied column by column *)
let map2 f a b =
  {
    committed = f a.committed b.committed;
    steered_narrow = f a.steered_narrow b.steered_narrow;
    copies = f a.copies b.copies;
    split_uops = f a.split_uops b.split_uops;
    steered_888 = f a.steered_888 b.steered_888;
    steered_br = f a.steered_br b.steered_br;
    steered_cr = f a.steered_cr b.steered_cr;
    steered_ir = f a.steered_ir b.steered_ir;
    steered_other = f a.steered_other b.steered_other;
    wide_default = f a.wide_default b.wide_default;
    wide_demoted = f a.wide_demoted b.wide_demoted;
    wpred_correct = f a.wpred_correct b.wpred_correct;
    wpred_fatal = f a.wpred_fatal b.wpred_fatal;
    wpred_nonfatal = f a.wpred_nonfatal b.wpred_nonfatal;
    prefetch_copies = f a.prefetch_copies b.prefetch_copies;
    prefetch_useful = f a.prefetch_useful b.prefetch_useful;
    nready_w2n = f a.nready_w2n b.nready_w2n;
    nready_n2w = f a.nready_n2w b.nready_n2w;
    issued_total = f a.issued_total b.issued_total;
  }

let sub_totals = map2 ( - )

let add_totals = map2 ( + )

let attrib_consistent d =
  d.steered_888 + d.steered_br + d.steered_cr + d.steered_ir + d.steered_other
  = d.steered_narrow
  && d.steered_ir = d.split_uops
  && d.wide_default + d.wide_demoted = d.committed - d.steered_narrow

type t = {
  t_start : int;
  t_end : int;
  d : totals;
  iq_wide : int;
  iq_narrow : int;
  rob : int;
  wpred_accuracy : float;
}

let make ~t_start ~t_end ~iq_wide ~iq_narrow ~rob d =
  let wtotal = d.wpred_correct + d.wpred_fatal + d.wpred_nonfatal in
  let wpred_accuracy =
    if wtotal = 0 then 0.
    else 100. *. float_of_int d.wpred_correct /. float_of_int wtotal
  in
  { t_start; t_end; d; iq_wide; iq_narrow; rob; wpred_accuracy }

(* wide-cluster cycles are half the fast ticks *)
let ipc s =
  let ticks = s.t_end - s.t_start in
  if ticks = 0 then 0.
  else float_of_int s.d.committed /. (float_of_int ticks /. 2.)

let aggregate samples =
  List.fold_left (fun acc s -> add_totals acc s.d) zero_totals samples

(* new columns are appended so existing consumers keep their offsets *)
let csv_header =
  String.concat ","
    [ "t_start"; "t_end"; "ipc"; "committed"; "steered_narrow"; "copies";
      "split_uops"; "wpred_correct"; "wpred_fatal"; "wpred_nonfatal";
      "wpred_accuracy_pct"; "prefetch_copies"; "prefetch_useful";
      "nready_w2n"; "nready_n2w"; "issued_total"; "iq_wide"; "iq_narrow";
      "rob"; "steered_888"; "steered_br"; "steered_cr"; "steered_ir";
      "steered_other"; "wide_default"; "wide_demoted" ]

let to_csv_row s =
  let d = s.d in
  String.concat ","
    [ string_of_int s.t_start; string_of_int s.t_end;
      Printf.sprintf "%.4f" (ipc s); string_of_int d.committed;
      string_of_int d.steered_narrow; string_of_int d.copies;
      string_of_int d.split_uops; string_of_int d.wpred_correct;
      string_of_int d.wpred_fatal; string_of_int d.wpred_nonfatal;
      Printf.sprintf "%.2f" s.wpred_accuracy;
      string_of_int d.prefetch_copies; string_of_int d.prefetch_useful;
      string_of_int d.nready_w2n; string_of_int d.nready_n2w;
      string_of_int d.issued_total; string_of_int s.iq_wide;
      string_of_int s.iq_narrow; string_of_int s.rob;
      string_of_int d.steered_888; string_of_int d.steered_br;
      string_of_int d.steered_cr; string_of_int d.steered_ir;
      string_of_int d.steered_other; string_of_int d.wide_default;
      string_of_int d.wide_demoted ]

let to_json s =
  let d = s.d in
  Printf.sprintf
    "{\"t_start\":%d,\"t_end\":%d,\"ipc\":%.4f,\"committed\":%d,\
     \"steered_narrow\":%d,\"copies\":%d,\"split_uops\":%d,\
     \"wpred_correct\":%d,\"wpred_fatal\":%d,\"wpred_nonfatal\":%d,\
     \"wpred_accuracy_pct\":%.2f,\"prefetch_copies\":%d,\
     \"prefetch_useful\":%d,\"nready_w2n\":%d,\"nready_n2w\":%d,\
     \"issued_total\":%d,\"iq_wide\":%d,\"iq_narrow\":%d,\"rob\":%d,\
     \"steered_888\":%d,\"steered_br\":%d,\"steered_cr\":%d,\
     \"steered_ir\":%d,\"steered_other\":%d,\"wide_default\":%d,\
     \"wide_demoted\":%d}"
    s.t_start s.t_end (ipc s) d.committed d.steered_narrow d.copies
    d.split_uops d.wpred_correct d.wpred_fatal d.wpred_nonfatal
    s.wpred_accuracy d.prefetch_copies d.prefetch_useful d.nready_w2n
    d.nready_n2w d.issued_total s.iq_wide s.iq_narrow s.rob d.steered_888
    d.steered_br d.steered_cr d.steered_ir d.steered_other d.wide_default
    d.wide_demoted
